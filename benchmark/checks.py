"""Ground-truth checks written independently of the package.

Each check takes the input graph and what the program returned, and
returns an error string or None. They read the graph only through
``neighbors``, ``edges`` and ``n``, and never call the package's
``verify_*`` functions.
"""

from __future__ import annotations

import hashlib
from itertools import combinations


def halin_decomposition_error(g, outer) -> str | None:
    """Why ``outer`` is not the leaf cycle of a Halin decomposition of g.

    The outer vertices must induce one chordless cycle, the remaining
    edges a spanning tree whose leaves are exactly the outer vertices and
    whose inner vertices have degree >= 3, and every edge of that tree
    must split the leaves into two arcs of the cycle (planarity).
    """
    n = g.n
    outer = set(outer)
    if len(outer) < 3 or any(not 0 <= v < n for v in outer):
        return "outer set has fewer than 3 vertices or an id out of range"
    for v in range(n):
        deg = len(g.neighbors(v))
        if v in outer and (deg != 3 or len(g.neighbors(v) & outer) != 2):
            return f"outer vertex {v} is not degree 3 with 2 outer neighbours"
        if v not in outer and deg < 3:
            return f"inner vertex {v} has degree {deg}"
    start = min(outer)
    order = [start]
    prev, cur = start, min(g.neighbors(start) & outer)
    while cur != start:
        order.append(cur)
        prev, cur = cur, next(w for w in g.neighbors(cur) & outer if w != prev)
        if len(order) > len(outer):
            return "outer vertices do not form one cycle"
    if len(order) != len(outer):
        return "outer vertices form more than one cycle"
    if g.num_edges() - len(outer) != n - 1:
        return "non-cycle edges are not n-1"

    # Root the tree at the leaf order[0]: every other subtree must own a
    # contiguous range of cycle positions 1..L-1.
    pos = {v: i for i, v in enumerate(order)}
    root = order[0]
    seen = {root}
    parent = {root: root}
    bfs = [root]
    for v in bfs:
        for w in g.neighbors(v):
            if w not in seen and not (v in outer and w in outer):
                seen.add(w)
                parent[w] = v
                bfs.append(w)
    if len(seen) != n:
        return "non-cycle edges do not span the graph"
    lo = {v: pos.get(v, n) for v in bfs}
    hi = {v: pos.get(v, -1) for v in bfs}
    cnt = {v: int(v in outer) for v in bfs}
    for v in reversed(bfs[1:]):
        if cnt[v] != hi[v] - lo[v] + 1:
            return f"leaves below {v} are not an arc of the cycle"
        p = parent[v]
        lo[p] = min(lo[p], lo[v])
        hi[p] = max(hi[p], hi[v])
        cnt[p] += cnt[v]
    return None


def coloring_error(g, colors: dict[int, int], expected: int) -> str | None:
    """Proper on every edge, every vertex colored, exactly ``expected`` colors."""
    if len(colors) != g.n or any(not 0 <= v < g.n for v in colors):
        return "coloring does not cover exactly the vertex set"
    for u, v in g.edges():
        if colors[u] == colors[v]:
            return f"edge ({u}, {v}) is monochromatic"
    used = len(set(colors.values()))
    if used != expected:
        return f"{used} colors used, {expected} expected"
    return None


def peo_error(g, order: list[int], fills) -> str | None:
    """The order must be a perfect elimination ordering of g plus the fill
    edges, with exactly 3 later neighbours at the widest vertex."""
    n = g.n
    if sorted(order) != list(range(n)):
        return "order is not a permutation of the vertices"
    adj = [set(g.neighbors(v)) for v in range(n)]
    for u, v in fills:
        if u == v or not (0 <= u < n and 0 <= v < n):
            return f"bad fill edge ({u}, {v})"
        adj[u].add(v)
        adj[v].add(u)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    width = 0
    for v in order:
        later = [w for w in adj[v] if pos[w] > pos[v]]
        width = max(width, len(later))
        for a, b in combinations(later, 2):
            if b not in adj[a]:
                return f"later neighbours of {v} are not a clique"
    if width != 3:
        return f"treewidth {width}, 3 expected"
    return None


def completion_error(g, fills, completed_edges) -> str | None:
    """The completed graph must be g plus the fill edges, nothing else."""
    want = {(min(u, v), max(u, v)) for u, v in g.edges()}
    want |= {(min(u, v), max(u, v)) for u, v in fills}
    got = {(min(u, v), max(u, v)) for u, v in completed_edges}
    return None if got == want else "completion is not the graph plus the fill edges"


def digest(*parts) -> str:
    """Stable hash of canonical output values."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
