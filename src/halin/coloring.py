"""Optimal vertex coloring of Halin graphs.

Three colors always suffice except for even wheels, which need four.
The algorithm 2-colors the inner tree by depth parity and then repairs
the cycle with one rule: read from an origin, every second cycle vertex
from position ``start`` on takes C3. The four cases (cycle parity, even
wheel, tree colors on the cycle) differ only in the origin and the
start. Case 4, an odd cycle in one tree color, first recolors one odd
run of leaves under a common parent, picked in one walk of the cycle,
and gives that parent C3.

The coloring runs on the certificate ``check_certificate`` returns: the
one ``certify`` derives from the given certificate's outer set, which
must equal it. The final coloring is re-checked on every tree and cycle
edge of that certificate, which are exactly the graph's edges, so a
wrong pattern fails loudly instead of returning an improper coloring.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby

from .graph import Graph
from .recognition import HalinCertificate, MalformedCertificateError, _Record, check_certificate

C1, C2, C3, C4 = 0, 1, 2, 3


class FanRun(namedtuple("FanRun", "center run is_fan")):
    """Maximal run of consecutive cycle vertices sharing one tree parent.

    ``run`` holds cycle positions (indices into cycle_order), in cycle
    order; ``is_fan`` is True when the center has exactly one non-leaf
    tree neighbor (a fan in the strict sense, not just a pseudo-fan).
    """

    __slots__ = ()


class ColoringTrace(_Record):
    """Filled in by color_halin when passed: the case that fired, and the
    odd run it recolored in case 4 (None in the other cases)."""

    def __init__(self, case: int | None = None, odd_run: FanRun | None = None) -> None:
        self.case = case
        self.odd_run = odd_run


def _is_even_wheel(g: Graph, cert: HalinCertificate) -> bool:
    """True iff a checked ``cert``'s inner tree is one star hub and n is even."""
    return g.n - len(cert.outer) == 1 and g.n % 2 == 0


def _forced_colors(g: Graph, cert: HalinCertificate) -> int | None:
    """The count of colors a witness read from g's adjacency sets forces
    on every proper coloring of g, or None when the witness is not in g.

    For an even wheel the witness is the hub joined to every vertex of
    its odd rim (4 colors); for every other Halin graph, a triangle of
    two consecutive cycle vertices and their common parent (3 colors),
    which the children of a deepest inner vertex always give.
    """
    adj = g._adj
    cyc = cert.cycle_order
    ring = zip(cyc, cyc[1:] + cyc[:1])
    if _is_even_wheel(g, cert):
        hub = cert.root
        odd_wheel = len(cyc) % 2 == 1 and all(v in adj[u] and hub in adj[u] for u, v in ring)
        return 4 if odd_wheel else None
    parent = cert.parent
    for u, v in ring:
        p = parent[u]
        if parent[v] == p:
            return 3 if v in adj[u] and p in adj[u] and p in adj[v] else None
    return None


def color_halin(
    g: Graph, cert: HalinCertificate, trace: ColoringTrace | None = None
) -> dict[int, int]:
    """Proper coloring of g with 3 colors, or 4 iff g is an even wheel.

    Each case picks the vertex the cycle is read from (origin) and a
    ``start``; from ``start`` on, every second vertex takes C3.

    Case 1: even cycle - origin 0, start 1.
    Case 2: even wheel - as case 1; the last rim vertex then takes C4.
    Case 3: odd cycle showing both tree colors - origin at a C1,C2 pair,
        start 2.
    Case 4: odd cycle in one tree color - origin at an odd fan or
        pseudo-fan run, start two past its end. The run alternates the
        other tree color and its own, and its center takes C3; the
        center's other leaves take the other tree color instead of C3.

    Raises MalformedCertificateError when ``cert`` is not the certificate
    ``certify`` derives from its outer set on g, or when the result has a
    monochromatic edge, which it names.
    """
    cert = check_certificate(g, cert)
    colors = _color_tree(cert)
    cyc = cert.cycle_order
    length = len(cyc)
    origin, run = 0, None

    if length % 2 == 0:
        case, start = 1, 1
    elif _is_even_wheel(g, cert):
        case, start = 2, 1
    elif len(set(map(colors.__getitem__, cyc))) == 2:  # both tree colors on the cycle
        case, start = 3, 2
        origin = next(
            i for i in range(length) if colors[cyc[i]] == C1 and colors[cyc[(i + 1) % length]] == C2
        )
    else:
        case = 4
        run = _odd_run(g, cert)
        other = C1 + C2 - colors[cyc[0]]  # the tree color the cycle lacks
        for i in run.run[::2]:
            colors[cyc[i]] = other
        colors[run.center] = C3
        origin, start = run.run[0], len(run.run) + 1

    ring = cyc[origin:] + cyc[:origin]  # no copy when origin is 0
    for v in ring[start::2]:
        colors[v] = C3
    if case == 2:
        colors[cyc[-1]] = C4
    elif case == 4:
        for w in g._adj[run.center]:
            if colors[w] == C3:  # a leaf of the center outside its run
                colors[w] = other

    if trace is not None:
        trace.case, trace.odd_run = case, run
    _check_proper(cert, colors)
    # Keyed by the certificate's own id objects, root first, as the
    # graph's adjacency sets hold them.
    return {v: colors[v] for v in (cert.root, *cert.parent)}


def _color_tree(cert: HalinCertificate) -> list[int]:
    """2-color every vertex by tree depth parity; the root gets C1.

    Returns the colors as a list indexed by vertex id: the certificate
    covers the ids 0..n-1, and a list holds them in far less memory than
    a dict, which keeps the walks over large graphs in cache. Proper on
    tree edges; conflicts may remain on cycle edges. The certificate
    ``check_certificate`` returns lists every parent before its children.
    """
    colors = [C1] * (len(cert.parent) + 1)
    for v, p in cert.parent.items():
        colors[v] = C1 + C2 - colors[p]  # the other tree color
    return colors


def _odd_run(g: Graph, cert: HalinCertificate) -> FanRun:
    """The run case 4 recolors: the first odd same-parent run around the
    cycle whose center is a true fan, else the first odd run.

    Runs are counted from the first change of parent, which every odd
    cycle but an even wheel's has; an odd cycle's run lengths sum to an
    odd number, so some run is odd. Every edge of an inner vertex is a
    tree edge, and a center with one inner tree neighbor has all its
    leaves in one arc, the run: so it is a true fan iff its degree is the
    run's length plus one.
    """
    cyc = cert.cycle_order
    length = len(cyc)
    pars = [cert.parent[w] for w in cyc]
    pos = next(i for i in range(length) if pars[i] != pars[i - 1])
    first = None
    for center, members in groupby(pars[pos:] + pars[:pos]):
        run_len = len(list(members))
        if run_len % 2:
            positions = tuple((pos + t) % length for t in range(run_len))
            run = FanRun(center, positions, len(g._adj[center]) == run_len + 1)
            if run.is_fan:
                return run
            first = first or run
        pos += run_len
    return first


def _check_proper(cert: HalinCertificate, colors) -> None:
    """Raise MalformedCertificateError naming the first monochromatic edge.

    ``colors`` maps each vertex id to its color: a list or a dict.

    One pass over the n - 1 tree edges of ``cert`` in parent order, then
    its cycle edges in cycle order: ``certify``, which built ``cert``,
    proved these to be exactly the edges of the graph.
    """
    cyc = cert.cycle_order
    for edges in (cert.parent.items(), zip(cyc, cyc[1:] + cyc[:1])):
        for u, v in edges:
            if colors[u] == colors[v]:
                raise MalformedCertificateError(
                    f"improper coloring: edge ({u}, {v}) has color {colors[u]} at both ends"
                )
