"""Brute-force reference checks for desk-scale validation.

Deliberately naive and hard-capped at 16 vertices so a test suite can
never wander into exponential territory by accident.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph

MAX_ORACLE_VERTICES = 16
MAX_ORACLE_COLORS = 5


def chromatic_number_bruteforce(g: Graph, max_k: int) -> int | None:
    """Smallest k <= max_k admitting a proper k-coloring, else None.

    Exhaustive assignment with two prunings: a vertex never takes a
    neighbor's color, and color ids are introduced in ascending order to
    kill palette symmetry.
    """
    if g.n > MAX_ORACLE_VERTICES:
        raise ValueError(f"size guard: brute force capped at n <= {MAX_ORACLE_VERTICES}")
    if max_k > MAX_ORACLE_COLORS:
        raise ValueError(f"size guard: brute force capped at k <= {MAX_ORACLE_COLORS}")
    if g.n == 0:
        return 0
    verts = sorted(g.vertices(), key=lambda v: -g.degree(v))
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [[index[w] for w in g.neighbors(v)] for v in verts]
    for k in range(1, max_k + 1):
        if _colorable(nbrs, k):
            return k
    return None


def _colorable(nbrs: list[list[int]], k: int) -> bool:
    n = len(nbrs)
    colors = [-1] * n

    def assign(i: int, used: int) -> bool:
        if i == n:
            return True
        taken = {colors[j] for j in nbrs[i] if colors[j] >= 0}
        for c in range(min(used + 1, k)):
            if c in taken:
                continue
            colors[i] = c
            if assign(i + 1, max(used, c + 1)):
                return True
        colors[i] = -1
        return False

    return assign(0, 0)


def is_chordal_bruteforce(g: Graph) -> bool:
    """True iff no induced cycle of length >= 4 exists.

    Strips simplicial vertices (closed neighborhood a clique) until the
    graph empties; getting stuck is equivalent to a chordless cycle.
    """
    if g.n > MAX_ORACLE_VERTICES:
        raise ValueError(f"size guard: brute force capped at n <= {MAX_ORACLE_VERTICES}")
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    while adj:
        simplicial = None
        for v in sorted(adj):
            if all(b in adj[a] for a, b in combinations(adj[v], 2)):
                simplicial = v
                break
        if simplicial is None:
            return False
        for w in adj[simplicial]:
            adj[w].discard(simplicial)
        del adj[simplicial]
    return True

