"""Halin graph recognition, certificate construction, and verification.

Recognition never tests planarity. It repeatedly contracts a fan
(an internal vertex whose neighbors, minus one, form a path of degree-3
vertices) into a single placeholder vertex until the residue is a wheel,
then expands the contraction trace to recover the outer cycle. The
outer set is always re-checked by ``certify``, which builds the
certificate in the same pass, so a bad contraction can only cause a
rejection, never a wrong acceptance.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .graph import Graph

REASON_DISCONNECTED = "disconnected"
REASON_LOW_DEGREE = "vertex_of_degree_below_3"
REASON_STUCK = "reduction_stuck"
REASON_VERIFY_FAILED = "certificate_verification_failed"


class MalformedCertificateError(ValueError):
    """Raised when an operation is handed a certificate that does not fit."""


@dataclass(frozen=True)
class HalinCertificate:
    """Outer cycle plus inner tree of a Halin decomposition.

    ``cycle_order`` lists the outer vertices in cyclic order; ``parent``
    maps every vertex except ``root`` to its tree parent, and the tree
    edges are exactly the non-cycle edges of the graph.
    """

    outer: frozenset[int]
    cycle_order: tuple[int, ...]
    parent: dict[int, int]
    root: int


@dataclass(frozen=True)
class RecognitionResult:
    certificate: HalinCertificate | None
    reason: str | None

    @property
    def is_halin(self) -> bool:
        return self.certificate is not None


def outer_cycle_order(g: Graph, outer: set[int]) -> list[int]:
    """Cyclic order of the outer vertices, or ValueError if they do not
    induce a single chordless cycle.

    Starts at the smallest outer id and walks toward its smaller
    outer-neighbor, so the order is deterministic.
    """
    outer = set(outer)
    if len(outer) < 3:
        raise ValueError("an outer cycle needs at least 3 vertices")
    for w in outer:
        if not g.has_vertex(w):
            raise ValueError(f"outer vertex {w} is not in the graph")
    start = min(outer)
    first = sorted(g.neighbors(start) & outer)
    if len(first) != 2:
        raise ValueError(f"outer vertex {start} has {len(first)} outer neighbors")
    order = [start]
    prev, cur = start, first[0]
    while cur != start:
        order.append(cur)
        if len(order) > len(outer):
            raise ValueError("outer does not induce a single cycle")
        step = (g.neighbors(cur) & outer) - {prev}
        if len(step) != 1:
            raise ValueError(f"outer vertex {cur} has {len(step) + 1} outer neighbors")
        prev, cur = cur, step.pop()
    if len(order) != len(outer):
        raise ValueError("outer does not induce a single cycle")
    return order


def inner_tree(g: Graph, outer: set[int]) -> tuple[dict[int, int], int]:
    """Parent map and root of the inner tree, by BFS over non-cycle edges.

    The root is the smallest inner vertex (the hub, for a wheel). Raises
    MalformedCertificateError when the non-cycle edges fail to form a
    spanning tree.
    """
    outer = set(outer)
    inner = [v for v in g.vertices() if v not in outer]
    if not inner:
        raise MalformedCertificateError("no inner vertex available as tree root")
    root = min(inner)
    cycle_edges = sum(1 for w in outer if g.has_vertex(w) for z in g.neighbors(w) if z in outer) // 2
    if g.num_edges() - cycle_edges != g.n - 1:
        raise MalformedCertificateError("non-cycle edges do not form a spanning tree")
    parent: dict[int, int] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w in seen or (v in outer and w in outer):
                continue
            seen.add(w)
            parent[w] = v
            queue.append(w)
    if len(seen) != g.n:
        raise MalformedCertificateError("non-cycle edges do not span the graph")
    return parent, root


def certificate_from_outer(g: Graph, outer: set[int]) -> HalinCertificate:
    """Build the full certificate for a graph with a known outer set."""
    try:
        order = outer_cycle_order(g, outer)
    except ValueError as exc:
        raise MalformedCertificateError(str(exc)) from None
    parent, root = inner_tree(g, outer)
    return HalinCertificate(frozenset(outer), tuple(order), parent, root)


def check_certificate(g: Graph, cert: HalinCertificate) -> None:
    """Raise MalformedCertificateError unless the cycle and tree edges of
    ``cert`` are exactly the edges of ``g``.

    The O(n) guard in front of coloring and elimination: the root is a
    live inner vertex, ``cycle_order`` is a permutation of ``outer`` whose
    consecutive pairs are edges, every other vertex has a parent joined to
    it by an edge, no parent is an outer vertex and no two vertices are
    each other's parent, and g has no edge beyond these. It does not check
    that the parent map is connected or that g is Halin; ``certify`` does.
    """
    outer = cert.outer
    cyc = cert.cycle_order
    parent = cert.parent
    if not g.has_vertex(cert.root) or cert.root in outer:
        raise MalformedCertificateError("root must be a live inner vertex")
    if len(cyc) < 3:
        raise MalformedCertificateError("outer cycle needs at least 3 vertices")
    if len(cyc) != len(outer) or set(cyc) != outer:
        raise MalformedCertificateError("cycle_order is not a permutation of outer")
    if len(parent) != g.n - 1 or cert.root in parent:
        raise MalformedCertificateError("parent map must cover all vertices except the root")
    adj = g._adjacency()
    # With the ids in range, a dead id fails the edge tests: it has no
    # neighbors, and it is nobody's neighbor.
    if min(outer) < 0 or max(outer) >= len(adj):
        raise MalformedCertificateError("vertex id out of range")
    for i, w in enumerate(cyc):
        if cyc[i - 1] not in adj[w]:
            raise MalformedCertificateError(
                f"cycle_order pair ({cyc[i - 1]}, {w}) is not an edge of the graph"
            )
    if min(parent) < 0 or max(parent) >= len(adj):
        raise MalformedCertificateError("vertex id out of range")
    for v, p in parent.items():
        if p not in adj[v] or p in outer or parent.get(p) == v:
            raise MalformedCertificateError(f"parent pair ({v}, {p}) is not a tree edge")
    if g.num_edges() != g.n - 1 + len(cyc):
        raise MalformedCertificateError("the graph has edges outside the cycle and the tree")


def certify(g: Graph, outer: set[int]) -> HalinCertificate | None:
    """The certificate of ``outer`` if it witnesses a Halin decomposition
    of ``g``, else None; one walk of the cycle and one of the tree.

    Accepts iff (a) the outer vertices induce a single cycle, (b) removing
    the cycle edges leaves a spanning tree, (c) whose leaves are exactly
    the outer vertices, (d) with no inner vertex of tree-degree 2, and
    (e) the leaves of every subtree form a contiguous arc of the cycle,
    i.e. the cycle order is realizable by a planar embedding of the tree.
    The certificate is the one ``certificate_from_outer`` builds.
    """
    outer = set(outer)
    adj = g._adjacency()
    if len(outer) < 3 or min(outer) < 0 or max(outer) >= len(adj):
        return None
    # Outer vertices: 2 cycle neighbors + 1 tree parent. Inner vertices
    # touch no cycle edge, so their tree-degree is their plain degree.
    # Dead ids have no neighbors, so this also rejects them.
    if any(len(adj[w]) != 3 for w in outer):
        return None
    # (a) The walk from the smallest outer id toward its smaller outer
    # neighbor, as in outer_cycle_order.
    start = min(outer)
    first = sorted(adj[start] & outer)
    if len(first) != 2:
        return None
    order = [start]
    prev, cur = start, first[0]
    while cur != start:
        order.append(cur)
        if len(order) > len(outer):
            return None
        step = adj[cur] & outer
        if len(step) != 2:
            return None
        step.discard(prev)
        prev, cur = cur, step.pop()
    cyc_len = len(order)
    if cyc_len != len(outer):
        return None
    n = g.n
    if g.num_edges() - cyc_len != n - 1:
        return None
    inner = [v for v in g.vertices() if v not in outer]
    if not inner or any(len(adj[v]) < 3 for v in inner):
        return None
    # (b) BFS over the non-cycle edges, as in inner_tree. An outer vertex
    # has exactly one of those, to the vertex it was reached from, so
    # only inner vertices, whose edges are all non-cycle, are expanded.
    root = inner[0]
    parent: dict[int, int] = {}
    bfs = [root]
    seen = {root}
    for v in bfs:
        if v in outer:
            continue
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                parent[w] = v
                bfs.append(w)
    if len(seen) != n:
        return None

    # (e) Arc-contiguity. Rotate the cycle so it starts at a boundary
    # between two root subtrees; valid arcs then never wrap, and a leaf
    # interval is contiguous iff count == max - min + 1.
    bound = len(adj)
    top = [0] * bound
    top[root] = root
    for v in bfs[1:]:
        p = parent[v]
        top[v] = v if p == root else top[p]
    boundary = next(
        (i for i in range(cyc_len) if top[order[i]] != top[order[i - 1]]), None
    )
    if boundary is None:
        # Single root subtree: the root would have tree-degree 1.
        return None
    lo = [cyc_len] * bound
    hi = [-1] * bound
    cnt = [0] * bound
    for j in range(cyc_len):
        w = order[(boundary + j) % cyc_len]
        lo[w] = hi[w] = j
        cnt[w] = 1
    # Children before parents: every subtree is complete when its root
    # is reached.
    for v in bfs[:0:-1]:
        c = cnt[v]
        if c == 0 or c != hi[v] - lo[v] + 1:
            return None  # no leaf below an inner vertex, or a split arc
        p = parent[v]
        cnt[p] += c
        if lo[v] < lo[p]:
            lo[p] = lo[v]
        if hi[v] > hi[p]:
            hi[p] = hi[v]
    return HalinCertificate(frozenset(outer), tuple(order), parent, root)


def verify_halin(g: Graph, outer: set[int]) -> bool:
    """Check that ``outer`` witnesses a Halin decomposition of ``g``:
    conditions (a)-(e) of ``certify``."""
    return certify(g, outer) is not None


def recognize(g: Graph) -> RecognitionResult:
    """Decide whether ``g`` is a Halin graph.

    On acceptance the certificate is the one ``certify`` builds for the
    recovered outer set; on rejection the result carries a reason code.
    """
    if not g.is_connected():
        return RecognitionResult(None, REASON_DISCONNECTED)
    src = g._adjacency()
    verts = list(g.vertices())
    if any(len(src[v]) < 3 for v in verts):
        return RecognitionResult(None, REASON_LOW_DEGREE)
    if g.n < 4:
        return RecognitionResult(None, REASON_STUCK)

    # A wheel has no fan: in K4 every neighborhood is a triangle, a larger
    # hub's neighbors form a cycle, and a rim vertex's two rim neighbors
    # are not adjacent. So it skips the contraction loop.
    rims = _wheel_rims(src, verts, len(src))
    trace: list[tuple[int, tuple[int, ...]]] = []
    if not rims:
        adj, residue, trace = _contract(src, verts)
        rims = _wheel_rims(adj, residue, len(src))
    for rim in rims:
        cert = certify(g, _expand(rim, trace))
        if cert is not None:
            return RecognitionResult(cert, None)
    return RecognitionResult(None, REASON_VERIFY_FAILED if rims else REASON_STUCK)


def _contract(
    src: list[set[int]], verts: list[int]
) -> tuple[list[set[int]], list[int], list[tuple[int, tuple[int, ...]]]]:
    """Contract fans, smallest live id first, until none is left.

    Works on a copy of ``src``, whose live ids are ``verts`` in ascending
    order; placeholders get the next fresh id. Returns the adjacency sets,
    the live ids of the residue, and the trace: one (placeholder, path)
    per contraction.
    """
    adj = [set(s) for s in src]
    live = [False] * len(adj)
    for v in verts:
        live[v] = True
    heap = list(verts)  # ascending, hence already a heap
    # One heap entry per id at most: an id is pushed only while not queued.
    queued = list(live)
    trace = []
    while True:
        fan = None
        while heap:
            v = heapq.heappop(heap)
            queued[v] = False
            if not live[v]:
                continue
            fan = _find_fan(adj, v)
            if fan is not None:
                center = v
                break
        if fan is None:
            return adj, [v for v, alive in enumerate(live) if alive], trace
        path, hinge, ends_out = fan
        placeholder = len(adj)
        for w in (*path, center):
            for x in adj[w]:
                adj[x].discard(w)
            adj[w].clear()
            live[w] = False
        new_nbrs = {hinge} | ends_out
        adj.append(set(new_nbrs))
        live.append(True)
        queued.append(False)
        for w in new_nbrs:
            adj[w].add(placeholder)
        trace.append((placeholder, tuple(path)))
        # The placeholder, its neighbors and theirs; each of those
        # neighbors lists the placeholder.
        dirty = set(new_nbrs)
        for w in new_nbrs:
            dirty |= adj[w]
        for w in dirty:
            if not queued[w]:
                queued[w] = True
                heapq.heappush(heap, w)


def _find_fan(adj: list[set[int]], v: int):
    """Fan pattern centered at the live vertex v, or None.

    A fan is N(v) minus one hinge vertex forming a path of degree-3
    vertices, each path endpoint having exactly one neighbor outside the
    path and v. Returns (path in order, hinge, endpoint outside-neighbors).
    """
    nbrs = adj[v]
    if len(nbrs) < 3:
        return None
    hinge = None
    for w in nbrs:
        if len(adj[w]) != 3:
            if hinge is not None:
                return None  # two neighbors of degree other than 3
            hinge = w
    if len(nbrs) == 3:
        # The path is an adjacent pair of neighbors, the hinge the third.
        a, b, c = nbrs
        if hinge is None:
            # All three have degree 3, so the hinge is the one neighbor
            # with no neighbor among the others: exactly one pair is adjacent.
            ab, bc, ca = b in adj[a], c in adj[b], a in adj[c]
            if ab + bc + ca != 1:
                return None
            x, y, hinge = (a, b, c) if ab else (b, c, a) if bc else (c, a, b)
        else:
            x, y = (b, c) if hinge == a else (a, c) if hinge == b else (a, b)
            if y not in adj[x]:
                return None
        if y < x:
            x, y = y, x
        return [x, y], hinge, (adj[x] | adj[y]) - {x, y, v}
    if hinge is None:
        # The hinge has no neighbor inside N(v), and it is the only such
        # neighbor: any other would be a path vertex with no path neighbor.
        isolated = [w for w in nbrs if adj[w].isdisjoint(nbrs)]
        if len(isolated) != 1:
            return None
        hinge = isolated[0]
    path_set = nbrs - {hinge}
    ends = []
    for w in path_set:
        k = len(adj[w] & path_set)
        if k == 1:
            ends.append(w)
        elif k != 2:
            return None
    if len(ends) != 2:
        return None
    start = min(ends)
    path = [start]
    seen = {start}
    cur = start
    while True:
        step = [z for z in adj[cur] & path_set if z not in seen]
        if not step:
            break
        cur = step[0]
        path.append(cur)
        seen.add(cur)
    if len(path) != len(path_set):
        return None  # a path plus disjoint cycles
    # Each endpoint has degree 3: v, one path neighbor and one more.
    ends_out = (adj[path[0]] | adj[path[-1]]) - path_set - {v}
    return path, hinge, ends_out


def _wheel_rims(adj: list[set[int]], verts: list[int], orig_bound: int) -> list[set[int]]:
    """Candidate rim sets if the live vertices ``verts`` form a wheel, else [].

    For K4 every vertex could be the hub, so all four rims are offered,
    original vertices first (placeholders expand to leaves, never hubs).
    """
    m = len(verts)
    if m < 4:
        return []
    if m == 4:
        if sum(len(adj[v]) for v in verts) != 12:
            return []
        hubs = sorted(verts, key=lambda v: (v >= orig_bound, v))
        return [set(verts) - {h} for h in hubs]
    hubs = [v for v in verts if len(adj[v]) == m - 1]
    if len(hubs) != 1:
        return []
    hub = hubs[0]
    rim = set(verts) - {hub}
    if any(len(adj[v]) != 3 for v in rim):
        return []
    # Rim must be a single cycle.
    start = min(rim)
    prev, cur = start, min(adj[start] & rim)
    count = 1
    while cur != start:
        count += 1
        if count > len(rim):
            return []
        step = (adj[cur] & rim) - {prev}
        if len(step) != 1:
            return []
        prev, cur = cur, step.pop()
    if count != len(rim):
        return []
    return [rim]


def _expand(outer: set[int], trace: list[tuple[int, tuple[int, ...]]]) -> set[int]:
    """Replace contraction placeholders by the cycle vertices they absorbed."""
    out = set(outer)
    for placeholder, leaves in reversed(trace):
        if placeholder in out:
            out.remove(placeholder)
            out.update(leaves)
    return out
