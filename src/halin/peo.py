"""Perfect elimination ordering of a treewidth-3 chordal completion.

Two reduction rules shrink a Halin graph to K4 while recording fill
edges. R1 removes the middle of three consecutive cycle vertices under
one center after completing their 4-clique with one fill edge; R2
removes a center left with exactly two cycle children by filling both
toward its third neighbor, which inherits the children. The eliminated
vertices, in order, followed by the K4 residue give a PEO of the graph
plus fills.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph
from .recognition import HalinCertificate, MalformedCertificateError, check_certificate


@dataclass(frozen=True)
class TraceStep:
    """One reduction: rule tag, eliminated vertex, and its 4-clique.

    For R1 the clique reads (p, q, r, s) with q eliminated and pr filled;
    for R2 it reads (p, r, s, t) with s eliminated and pt, rt filled.
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
    in ascending id order. Raises MalformedCertificateError unless the
    certificate's cycle and tree edges are exactly the edges of g, so the
    reduction runs on the certificate alone and never copies the graph.
    """
    check_certificate(g, cert)
    outer = cert.outer
    cyc = cert.cycle_order
    clen = len(cyc)
    nxt = {cyc[i]: cyc[(i + 1) % clen] for i in range(clen)}
    par = {w: cert.parent[w] for w in cyc}
    child_count = Counter(par.values())
    # Live inner tree neighbors of each inner vertex. The only fills at an
    # inner vertex join it to the cycle vertices it inherits as children,
    # so the degree of an inner vertex s is child_count[s] + len(inner_nbrs[s]).
    inner_nbrs: dict[int, set[int]] = {}
    for v, p in cert.parent.items():
        if v not in outer:
            inner_nbrs.setdefault(v, set()).add(p)
            inner_nbrs.setdefault(p, set()).add(v)

    order: list[int] = []
    fills: set[tuple[int, int]] = set()
    trace: list[TraceStep] = []
    live = g.n
    cur = cyc[0]
    idle = 0

    while live > 4:
        q = nxt[cur]
        r = nxt[q]
        s = par[cur]
        if par[q] == s and par[r] == s and clen > 3:
            # R1 on the triple (cur, q, r): eliminate q, fill cur-r.
            step = TraceStep("R1", q, (cur, q, r, s))
            nxt[cur] = r
            del nxt[q], par[q]
            child_count[s] -= 1
            clen -= 1
        elif par[q] == s and child_count[s] == 2 and len(inner_nbrs.get(s, ())) == 1:
            # R2: (cur, q) is the whole fan of s, which has degree 3; hand
            # them to s's third neighbor t and eliminate s.
            (t,) = inner_nbrs.pop(s)
            inner_nbrs[t].discard(s)
            step = TraceStep("R2", s, (cur, q, s, t))
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
        _apply_step(step, order, fills)
        trace.append(step)
        live -= 1
        idle = 0

    tail = _residue(g, order)
    for a, b in combinations(tail, 2):
        if not g.has_edge(a, b) and (a, b) not in fills:
            raise MalformedCertificateError("residue is not a K4")
    order.extend(tail)
    return PeoResult(order, fills, trace)


def chordal_completion(g: Graph, result: PeoResult) -> Graph:
    """The graph plus the fill edges recorded by peo_halin(g, ...); the
    fills are added as they are, without checking their endpoints again."""
    h = g.copy()
    adj = h._adjacency()
    for u, v in result.fill_edges:
        adj[u].add(v)
        adj[v].add(u)
    return h


def verify_peo(filled: Graph, order: list[int]) -> bool:
    """True iff every vertex's later neighbors are pairwise adjacent."""
    vs = set(filled.vertices())
    if len(order) != len(vs) or set(order) != vs:
        raise ValueError("order is not a permutation of the vertex set")
    adj = filled._adjacency()
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = [w for w in adj[v] if pos[w] > i]
        for a, b in combinations(later, 2):
            if b not in adj[a]:
                return False
    return True


def treewidth_from_peo(filled: Graph, order: list[int]) -> int:
    """Max count of later neighbors over the order; 3 for Halin completions."""
    if not verify_peo(filled, order):
        raise ValueError("order is not a perfect elimination ordering")
    pos = {v: i for i, v in enumerate(order)}
    width = 0
    for v in order:
        width = max(width, sum(1 for w in filled.neighbors(v) if pos[w] > pos[v]))
    return width


def replay_trace(g: Graph, trace: list[TraceStep]) -> tuple[list[int], set[tuple[int, int]]]:
    """Re-run a reduction trace of peo_halin on g; returns (order, fills).

    Replaying the trace of peo_halin(g, cert) reproduces its order and
    fill_edges exactly; both apply each step with the same function.
    """
    order: list[int] = []
    fills: set[tuple[int, int]] = set()
    for step in trace:
        _apply_step(step, order, fills)
    order.extend(_residue(g, order))
    return order, fills


def _apply_step(step: TraceStep, order: list[int], fills: set[tuple[int, int]]) -> None:
    """Apply one reduction: record its fill edges and eliminate its vertex.

    On a certificate that passed check_certificate a fill never joins two
    vertices already adjacent in g, so no edge test is needed: R1 joins
    cycle vertices that were never consecutive, R2 joins a cycle vertex
    to a vertex that was never its tree parent.
    """
    if step.rule == "R1":
        p, _q, r, _s = step.clique
        new = ((p, r),)
    elif step.rule == "R2":
        p, r, _s, t = step.clique
        new = ((p, t), (r, t))
    else:
        raise ValueError(f"unknown rule tag {step.rule!r}")
    for a, b in new:
        fills.add((a, b) if a < b else (b, a))
    order.append(step.eliminated)


def _residue(g: Graph, eliminated: list[int]) -> list[int]:
    """The vertices of g not yet eliminated, in ascending id order."""
    gone = set(eliminated)
    return [v for v in g.vertices() if v not in gone]
