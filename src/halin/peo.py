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

from collections import namedtuple
from itertools import combinations

from .graph import Graph, _add_edges, _ids
from .recognition import HalinCertificate, MalformedCertificateError, _Record, check_certificate


class TraceStep(namedtuple("TraceStep", "rule eliminated clique")):
    """One reduction: rule tag, eliminated vertex, and its 4-clique.

    A step is a tuple with named fields, so it compares and hashes by
    value, equal to the plain tuple of its fields. For R1 the clique
    reads (p, q, r, s) with q eliminated and pr filled; for R2 it reads
    (p, r, s, t) with s eliminated and pt, rt filled.

    A ``PeoResult`` keeps no steps, only one flat list of six entries a
    step: the rule, the eliminated vertex and the four clique ids.
    ``PeoResult.trace`` builds the TraceSteps and their cliques on each
    read. So ``peo_halin`` keeps no tuple per step, and a live result
    holds no object the cyclic collector tracks; a read pays back about
    the time ``peo_halin`` saved.
    """

    __slots__ = ()


_new_tuple = tuple.__new__  # builds a TraceStep without its Python-level __new__


class PeoResult(_Record):
    """Elimination order, fill edges and the trace of reduction steps,
    as ``peo_halin`` returns them.

    ``fill_edges`` is a list with each fill once, as (min, max), in the
    order of ``trace``: one per R1 step, two per R2 step. Most consecutive
    fills share an end (R1 keeps the cursor, R2 fills both toward t), so
    ``chordal_completion`` adds them along the cycle, to adjacency sets
    still in cache, rather than in hash order. ``set(fill_edges)`` gives
    them as a set. For the graph plus edges of your own, use
    ``Graph.from_edges(g.n, [*g.edges(), *extra])``.

    ``trace`` is read-only and returns a new list of TraceSteps on each
    read, built from the one flat record the result stores, six entries
    a step (see ``TraceStep``), so results compare, print, pickle and
    copy by value.
    """

    def __init__(self, order: list[int], fill_edges: list[tuple[int, int]], record: list) -> None:
        self.__dict__.update(order=order, fill_edges=fill_edges, trace=record)

    @property
    def trace(self) -> list[TraceStep]:
        it = iter(self.__dict__["trace"])
        return [
            _new_tuple(TraceStep, (rule, v, (a, b, c, d)))
            for rule, v, a, b, c, d in zip(it, it, it, it, it, it)
        ]


def peo_halin(g: Graph, cert: HalinCertificate) -> PeoResult:
    """Elimination order and fill edges for a chordal completion of g.

    Walks the cycle with a cursor over a linked list, applying R1 to the
    first applicable triple from the cursor and R2 to exhausted
    two-vertex fans, until only a K4 remains; its vertices are appended
    in ascending id order. The fill edges come as a list in the order
    the rules make them, each once, as (min, max); see ``PeoResult``.

    Raises MalformedCertificateError unless ``cert`` is the certificate
    ``certify`` derives from its outer set on g, whose cycle and tree
    edges are exactly the edges of g, so the reduction runs on the
    certificate alone and never copies the graph. That check is the
    validator: the loop's own two self-checks, a stall and a residue
    that is not a K4, catch faults of the loop, not of a certificate.
    A K4 residue, three cycle vertices and their parent, also proves
    that R1 took |C| - 3 steps and R2 (n - |C|) - 1 on the outer cycle C.
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

    # No fill joins two vertices adjacent in g: R1 joins cycle vertices
    # never consecutive, R2 a cycle vertex and a vertex never its parent.
    fills: list[tuple[int, int]] = []  # in step order, see PeoResult
    record: list = []  # six entries a step, see TraceStep
    live = n
    cur = cyc[0]
    idle = 0

    while live > 4:
        q = nxt[cur]
        r = nxt[q]
        s = par[cur]
        if par[q] == s and par[r] == s and clen > 3:
            # R1 on the triple (cur, q, r): eliminate q, fill cur-r.
            record += ("R1", q, cur, q, r, s)
            fills.append((cur, r) if cur < r else (r, cur))
            nxt[cur] = r  # q is off the cycle now, never read again
            child_count[s] -= 1
            clen -= 1
        elif par[q] == s and child_count[s] == 2 and inner_deg[s] == 1:
            # R2: (cur, q) is the whole fan of s, which has degree 3; hand
            # them to s's third neighbor t and eliminate s.
            t = inner_xor[s]
            inner_deg[t] -= 1
            inner_xor[t] ^= s
            record += ("R2", s, cur, q, s, t)
            fills.append((cur, t) if cur < t else (t, cur))
            fills.append((q, t) if q < t else (t, q))
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

    # R1 needs a cycle of four and R2 hands its fan to a live t, so the
    # four live vertices are three on the cycle from the cursor and their
    # parent. The cycle closing in three steps is also the step count:
    # only R1 shortens it, so R1 took |C| - 3 steps and R2 the other
    # (n - |C|) - 1.
    # A vertex listed twice makes a pair (a, a) that no edge or fill joins.
    # A residue pair may be any fill, the first one included, so the pairs
    # g lacks are tested against all fills in one pass, not one scan each.
    tail = sorted((cur, nxt[cur], nxt[nxt[cur]], par[cur]))
    missing = {(a, b) for a, b in combinations(tail, 2) if b not in g._adj[a]}
    if nxt[nxt[nxt[cur]]] != cur or (missing and missing.difference(fills)):
        raise MalformedCertificateError("residue is not a K4")
    order = record[1::6]  # the eliminated vertices
    order += tail
    return PeoResult(order, fills, record)


def chordal_completion(g: Graph, result: PeoResult) -> Graph:
    """The graph plus the fill edges recorded by peo_halin(g, ...).

    The fills are added in the order ``result`` lists them, which for
    ``peo_halin``'s list walks along the cycle (see ``PeoResult``).

    Raises ValueError, as ``Graph.from_edges`` does, when a fill edge is
    not two distinct int ids of vertices of g; a float, a str, None or a
    bool is no id.
    """
    h = Graph()
    h._adj = list(map(set.copy, g._adj))
    _add_edges(h._adj, result.fill_edges)
    return h


def verify_peo(filled: Graph, order: list[int]) -> bool:
    """True iff every vertex's later neighbors are pairwise adjacent."""
    return _peo_width(filled, order) is not None


def _is_chordal(g: Graph) -> bool:
    """True iff g is chordal, in O(n + m) plus one ``_peo_width`` walk.

    Maximum cardinality search numbers next an unnumbered vertex with the
    most numbered neighbors; the reverse of its order is a PEO iff g is
    chordal (Tarjan and Yannakakis, 1984), and ``_peo_width`` tests it.
    """
    adj = g._adj
    n = len(adj)
    count = [0] * n  # numbered neighbors; -1 once numbered itself
    buckets = [set(range(n))]  # buckets[k]: unnumbered, with count k
    order: list[int] = []
    top = 0
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        v = buckets[top].pop()
        count[v] = -1
        order.append(v)
        for w in adj[v]:
            k = count[w]
            if k >= 0:
                buckets[k].remove(w)
                if k + 1 == len(buckets):
                    buckets.append(set())
                buckets[k + 1].add(w)
                count[w] = k + 1
        top = min(top + 1, len(buckets) - 1)
    return _peo_width(g, order[::-1]) is not None


def _peo_width(filled: Graph, order: list[int]) -> int | None:
    """The largest count of later neighbors of a vertex over ``order``,
    or None when some vertex's later neighbors are not pairwise adjacent
    (the test of Rose, Tarjan and Lueker, 1976). Raises ValueError unless
    ``order`` lists each vertex id once, each an int (a bool is no id)."""
    n = filled.n
    if len(order) != n or not _ids(order, n) or len(set(order)) != n:
        raise ValueError("order is not a permutation of the vertex set")
    adj = filled._adj
    done: set[int] = set()
    width = 0
    for v in order:
        done.add(v)
        later = adj[v] - done
        if len(later) > width:
            width = len(later)
        # Pop the later neighbors one by one; each must see all the rest.
        while later:
            a = later.pop()
            if not later <= adj[a]:
                return None
    return width
