"""Optimal vertex coloring of Halin graphs.

Three colors always suffice except for even wheels, which need four.
The algorithm 2-colors the inner tree by depth parity and then recolors
part of the cycle; the recoloring pattern depends on the cycle parity
and on which tree colors appear on the cycle (four cases). It runs on
the certificate ``check_certificate`` returns: the one ``certify``
derives from the given certificate's outer set, which must equal it.
The final coloring is re-checked on every tree and cycle edge of that
certificate, which are exactly the graph's edges, so a wrong pattern
fails loudly instead of returning an improper coloring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, cycle
from operator import eq

from .graph import Graph
from .recognition import HalinCertificate, MalformedCertificateError, check_certificate

C1, C2, C3, C4 = 0, 1, 2, 3


@dataclass(frozen=True)
class FanRun:
    """Maximal run of consecutive cycle vertices sharing one tree parent.

    ``run`` holds cycle positions (indices into cycle_order), in cycle
    order; ``is_fan`` is True when the center has exactly one non-leaf
    tree neighbor (a fan in the strict sense, not just a pseudo-fan).
    """

    center: int
    run: tuple[int, ...]
    is_fan: bool


@dataclass
class ColoringTrace:
    """Filled in by color_halin when passed; records which case fired."""

    case: int | None = None
    odd_run: FanRun | None = None
    runs: list[FanRun] = field(default_factory=list)


def color_tree(cert: HalinCertificate) -> dict[int, int]:
    """2-color every vertex by tree depth parity; the root gets C1.

    Proper on tree edges; conflicts may remain on cycle edges. One walk
    over the parent map: a vertex listed before its parent, which a
    certificate from ``certify`` never has, colors its uncolored
    ancestors first. Raises MalformedCertificateError when the parent
    map has a cycle.
    """
    parent = cert.parent
    colors = {cert.root: C1}
    known = colors.get
    for v, p in parent.items():
        c = known(p)
        if c is None:
            path = [v]
            while p not in colors:
                path.append(p)
                if len(path) > len(parent):
                    raise MalformedCertificateError("the parent map has a cycle")
                p = parent[p]
            c = colors[p]
            for w in reversed(path[1:]):
                c = colors[w] = C1 + C2 - c  # the other tree color
        colors[v] = C1 + C2 - c
    return colors


def is_even_wheel(g: Graph, cert: HalinCertificate) -> bool:
    """True iff the inner tree is a single star hub and n is even."""
    return g.n - len(cert.outer) == 1 and g.n % 2 == 0


def cycle_runs(cert: HalinCertificate) -> list[FanRun]:
    """All maximal same-parent runs around the cycle, in cycle order,
    starting from the first parent boundary (position 0 if none)."""
    cyc = cert.cycle_order
    length = len(cyc)
    pars = [cert.parent[w] for w in cyc]
    children = _children_map(cert)
    start = next((i for i in range(length) if pars[i] != pars[i - 1]), None)
    runs: list[FanRun] = []
    if start is None:
        runs.append(FanRun(pars[0], tuple(range(length)), _is_true_fan(cert, children, pars[0])))
        return runs
    i = start
    covered = 0
    while covered < length:
        run_len = 1
        while pars[(i + run_len) % length] == pars[i] and run_len < length:
            run_len += 1
        positions = tuple((i + t) % length for t in range(run_len))
        center = pars[i]
        runs.append(FanRun(center, positions, _is_true_fan(cert, children, center)))
        covered += run_len
        i = (i + run_len) % length
    return runs


def find_odd_run(cert: HalinCertificate) -> FanRun:
    """An odd-length run for the monochromatic odd-cycle case.

    Prefers a run whose center is a true fan; otherwise returns the
    first odd pseudo-fan. On an odd cycle the run lengths sum to an odd
    number, so an odd run always exists.
    """
    runs = cycle_runs(cert)
    odd = [r for r in runs if len(r.run) % 2 == 1]
    if not odd:
        raise MalformedCertificateError("no odd run: cycle length is even?")
    for r in odd:
        if r.is_fan:
            return r
    return odd[0]


def color_halin(
    g: Graph, cert: HalinCertificate, trace: ColoringTrace | None = None
) -> dict[int, int]:
    """Proper coloring of g with 3 colors, or 4 iff g is an even wheel.

    Case 1: even cycle - every second cycle vertex takes C3.
    Case 2: even wheel - rim alternates C2/C3 and closes with one C4.
    Case 3: odd cycle showing both tree colors - rotate to a C1,C2 pair
        and recolor every second following vertex with C3.
    Case 4: odd cycle all one color - recolor an odd fan or pseudo-fan
        run alternately, give its center C3, and fix the remaining even
        stretch pairwise against the parent colors.

    Raises MalformedCertificateError when ``cert`` is not the certificate
    ``certify`` derives from its outer set on g, or when the result has a
    monochromatic edge, which it names.
    """
    cert = check_certificate(g, cert)
    colors = color_tree(cert)
    cyc = cert.cycle_order
    length = len(cyc)

    # Every cycle vertex is a key already, so update keeps the key order.
    if length % 2 == 0:
        case = 1
        colors.update(dict.fromkeys(cyc[1::2], C3))
    elif is_even_wheel(g, cert):
        case = 2
        colors.update(zip(cyc, cycle((C2, C3))))
        colors[cyc[length - 1]] = C4
    elif len(set(map(colors.__getitem__, cyc))) == 2:  # both tree colors on the cycle
        case = 3
        _recolor_two_tone_odd_cycle(colors, cyc)
    else:
        case = 4
        run = find_odd_run(cert)
        _recolor_monochrome_odd_cycle(colors, cert, run)
        if trace is not None:
            trace.odd_run = run
            trace.runs = cycle_runs(cert)

    if trace is not None:
        trace.case = case
    _check_proper(cert, colors)
    return colors


def _recolor_two_tone_odd_cycle(colors: dict[int, int], cyc: tuple[int, ...]) -> None:
    length = len(cyc)
    anchor = next(
        i
        for i in range(length)
        if colors[cyc[i]] == C1 and colors[cyc[(i + 1) % length]] == C2
    )
    seq = cyc[anchor:] + cyc[:anchor]
    # Keep seq[0], seq[1] (the C1,C2 pair); then C3 every second vertex.
    colors.update(dict.fromkeys(seq[2::2], C3))


def _recolor_monochrome_odd_cycle(
    colors: dict[int, int], cert: HalinCertificate, run: FanRun
) -> None:
    cyc = cert.cycle_order
    length = len(cyc)
    tone = colors[cyc[0]]           # the single color on the cycle
    other = C2 if tone == C1 else C1
    seq = [cyc[(run.run[0] + j) % length] for j in range(length)]
    run_len = len(run.run)
    for j in range(run_len):
        colors[seq[j]] = other if j % 2 == 0 else tone
    colors[run.center] = C3
    # Remaining even stretch, pairwise: keep the first of each pair, and
    # recolor the second against its parent (C3 under an untouched
    # parent, the second tree color under the recolored center).
    for j in range(run_len, length, 2):
        colors[seq[j]] = tone
        w = seq[j + 1]
        colors[w] = C3 if colors[cert.parent[w]] == other else other


def _children_map(cert: HalinCertificate) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for v, p in cert.parent.items():
        children.setdefault(p, []).append(v)
    return children


def _is_true_fan(
    cert: HalinCertificate, children: dict[int, list[int]], center: int
) -> bool:
    tree_nbrs = list(children.get(center, ()))
    if center != cert.root:
        tree_nbrs.append(cert.parent[center])
    return sum(1 for w in tree_nbrs if w not in cert.outer) == 1


def _check_proper(cert: HalinCertificate, colors: dict[int, int]) -> None:
    """Raise MalformedCertificateError naming a monochromatic edge, if any.

    Tests the n - 1 tree edges and the cycle edges of ``cert``, which
    ``certify``, which built it, proved to be exactly the edges of the
    graph.
    """
    parent = cert.parent
    cyc = cert.cycle_order
    color = colors.__getitem__
    around = list(map(color, cyc))
    if not (
        any(map(eq, map(color, parent), map(color, parent.values())))
        or any(map(eq, around, around[1:] + around[:1]))
    ):
        return
    edges = chain(parent.items(), zip(cyc, cyc[1:] + cyc[:1]))
    u, v = next((u, v) for u, v in edges if colors[u] == colors[v])
    raise MalformedCertificateError(
        f"improper coloring: edge ({u}, {v}) has color {colors[u]} at both ends"
    )
