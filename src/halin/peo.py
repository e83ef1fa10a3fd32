"""Perfect elimination ordering of a treewidth-3 chordal completion.

Two reduction rules shrink a Halin graph to K4 while recording fill
edges. R1 removes the middle of three consecutive cycle vertices under
one center after completing their 4-clique with one fill edge; R2
removes a center left with exactly two cycle children by filling both
toward its third neighbor, which inherits the children. The eliminated
vertices, in order, followed by the K4 residue give a PEO of the graph
plus fills. The rules run on the certificate ``check_certificate``
returns: the one ``certify`` derives from the given certificate's outer
set, which must equal it, so they only ever see a true Halin
decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .graph import Graph
from .recognition import HalinCertificate, MalformedCertificateError, check_certificate


class TraceStep(NamedTuple):
    """One reduction: rule tag, eliminated vertex, and its 4-clique.

    A step is a tuple with named fields, so it is cheap to build and
    compares and hashes by value. For R1 the clique reads (p, q, r, s)
    with q eliminated and pr filled; for R2 it reads (p, r, s, t) with s
    eliminated and pt, rt filled.
    """

    rule: str
    eliminated: int
    clique: tuple[int, int, int, int]


@dataclass
class PeoResult:
    order: list[int]
    fill_edges: set[tuple[int, int]]
    trace: list[TraceStep]


def peo_halin(g: Graph, cert: HalinCertificate) -> PeoResult:
    """Elimination order and fill edges for a chordal completion of g.

    Walks the cycle with a cursor over a linked list, applying R1 to the
    first applicable triple from the cursor and R2 to exhausted
    two-vertex fans, until only a K4 remains; its vertices are appended
    in ascending id order. Raises MalformedCertificateError unless
    ``cert`` is the certificate ``certify`` derives from its outer set on
    g, whose cycle and tree edges are exactly the edges of g, so the
    reduction runs on the certificate alone and never copies the graph.
    The loop records only the trace; order and fills are read off it by
    the pass that ``replay_trace`` uses.
    """
    cert = check_certificate(g, cert)
    cyc = cert.cycle_order
    parent = cert.parent
    clen = len(cyc)
    # Indexed by vertex id: nxt and par are read at cycle vertices only,
    # child_count at inner ones.
    n = g.n
    nxt = [0] * n
    par = [0] * n
    child_count = [0] * n
    prev = cyc[-1]
    for w in cyc:
        nxt[prev] = w
        prev = w
        p = parent[w]
        par[w] = p
        child_count[p] += 1
    # Live inner tree neighbors of each inner vertex, as a count and the
    # XOR of their ids, which is the neighbor itself when the count is 1.
    # The only fills at an inner vertex join it to the cycle vertices it
    # inherits as children, so the degree of an inner vertex s is
    # child_count[s] + inner_deg[s].
    inner_deg = [0] * n
    inner_xor = [0] * n
    for v in parent.keys() - cert.outer:
        p = parent[v]
        inner_deg[v] += 1
        inner_deg[p] += 1
        inner_xor[v] ^= p
        inner_xor[p] ^= v

    trace: list[TraceStep] = []
    new_tuple = tuple.__new__  # builds a TraceStep without its Python-level __new__
    live = n
    cur = cyc[0]
    idle = 0

    while live > 4:
        q = nxt[cur]
        r = nxt[q]
        s = par[cur]
        if par[q] == s and par[r] == s and clen > 3:
            # R1 on the triple (cur, q, r): eliminate q, fill cur-r.
            trace.append(new_tuple(TraceStep, ("R1", q, (cur, q, r, s))))
            nxt[cur] = r  # q is off the cycle now, never read again
            child_count[s] -= 1
            clen -= 1
        elif par[q] == s and child_count[s] == 2 and inner_deg[s] == 1:
            # R2: (cur, q) is the whole fan of s, which has degree 3; hand
            # them to s's third neighbor t and eliminate s.
            t = inner_xor[s]
            inner_deg[t] -= 1
            inner_xor[t] ^= s
            trace.append(new_tuple(TraceStep, ("R2", s, (cur, q, s, t))))
            par[cur] = t
            par[q] = t
            child_count[t] += 2
        else:
            cur = q
            idle += 1
            if idle > clen + 1:
                raise MalformedCertificateError(
                    "reduction stalled; certificate does not describe a Halin graph"
                )
            continue
        live -= 1
        idle = 0

    order, fills = _replay(trace)
    tail = _residue(g, order)
    for a, b in combinations(tail, 2):
        if not g.has_edge(a, b) and (a, b) not in fills:
            raise MalformedCertificateError("residue is not a K4")
    order.extend(tail)
    return PeoResult(order, fills, trace)


def chordal_completion(g: Graph, result: PeoResult) -> Graph:
    """The graph plus the fill edges recorded by peo_halin(g, ...).

    Raises ValueError when a fill edge is a self-loop or has an endpoint
    that is not a vertex of g; a bool endpoint counts as the int it
    equals.
    """
    h = g.copy()
    adj = h._adjacency()
    n = len(adj)
    try:
        for u, v in result.fill_edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"fill edge ({u}, {v}) does not join two vertices of the graph")
            adj[u].add(v)
            adj[v].add(u)
    except TypeError:  # from the range test or the index: a float, str or None
        raise ValueError("a fill edge has an endpoint that is not a vertex id") from None
    return h


def verify_peo(filled: Graph, order: list[int]) -> bool:
    """True iff every vertex's later neighbors are pairwise adjacent."""
    vs = set(filled.vertices())
    if len(order) != len(vs) or set(order) != vs:
        raise ValueError("order is not a permutation of the vertex set")
    adj = filled._adjacency()
    done: set[int] = set()
    for v in order:
        done.add(v)
        later = adj[v] - done
        # Pop the later neighbors one by one; each must see all the rest.
        while later:
            a = later.pop()
            if not later <= adj[a]:
                return False
    return True


def treewidth_from_peo(filled: Graph, order: list[int]) -> int:
    """Max count of later neighbors over the order; 3 for Halin completions."""
    if not verify_peo(filled, order):
        raise ValueError("order is not a perfect elimination ordering")
    adj = filled._adjacency()
    done: set[int] = set()
    width = 0
    for v in order:
        done.add(v)
        width = max(width, len(adj[v] - done))
    return width


def replay_trace(g: Graph, trace: list[TraceStep]) -> tuple[list[int], set[tuple[int, int]]]:
    """Re-run a reduction trace of peo_halin on g; returns (order, fills).

    Replaying the trace of peo_halin(g, cert) reproduces its order and
    fill_edges exactly; both read them off the trace with ``_replay``.
    """
    order, fills = _replay(trace)
    order.extend(_residue(g, order))
    return order, fills


def _replay(trace: list[TraceStep]) -> tuple[list[int], set[tuple[int, int]]]:
    """The eliminated vertices of a trace in order, and its fill edges.

    On a certificate that passed check_certificate a fill never joins two
    vertices already adjacent in g, so no edge test is needed: R1 joins
    cycle vertices that were never consecutive, R2 joins a cycle vertex
    to a vertex that was never its tree parent.
    """
    order: list[int] = []
    fills: set[tuple[int, int]] = set()
    for rule, eliminated, (a, b, c, d) in trace:
        if rule == "R1":  # (p, q, r, s): fill pr
            fills.add((a, c) if a < c else (c, a))
        elif rule == "R2":  # (p, r, s, t): fill pt, rt
            fills.add((a, d) if a < d else (d, a))
            fills.add((b, d) if b < d else (d, b))
        else:
            raise ValueError(f"unknown rule tag {rule!r}")
        order.append(eliminated)
    return order, fills


def _residue(g: Graph, eliminated: list[int]) -> list[int]:
    """The vertices of g not yet eliminated, in ascending id order."""
    gone = set(eliminated)
    return [v for v in g.vertices() if v not in gone]
