"""Simple undirected graph on dense integer vertex ids.

Vertices are always the ids 0..n-1, with adjacency stored as per-vertex
sets. A vertex id is an int (``type(v) is int``, so a bool is no id) in
0..n-1, a rule that lives here: ``has_vertex`` tests one id, ``_ids``
many. The accessors ``degree``, ``neighbors`` and ``has_edge`` raise
ValueError on a non-id. A graph is built once, by ``Graph(n)`` or
``Graph.from_edges``, and never changes. Every edge of every graph
passes one check, ``_add_edges``.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator


def _brief(x: object) -> str:
    """repr(x) for an error message, cut to 80 characters at most, so
    that a message never repeats a large input in full."""
    r = repr(x)
    return r if len(r) <= 80 else r[:77] + "..."


def _ids(xs: Collection, n: int) -> bool:
    """True iff ``has_vertex`` holds for each element of ``xs`` on n vertices."""
    return {*map(type, xs)} <= {int} and (not xs or (min(xs) >= 0 and max(xs) < n))


def _add_edges(adj: list[set[int]], pairs: Iterable) -> None:
    """Add each pair (u, v) of ``pairs`` to the adjacency sets ``adj``.

    Raises ValueError on the first entry that is not a pair of two
    distinct int ids in 0..len(adj)-1; a float, a str, None or a bool is
    no id. A repeated edge counts once.

    The sets hold one int object per id, made here in id order, not the
    objects of ``pairs``: those are often many per id (a JSON parser
    makes one per occurrence) and scattered over the heap, and every walk
    over a large graph would then miss the cache on each of them.
    """
    n = len(adj)
    ids = list(range(n))
    for e in pairs:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise ValueError(f"edge entry {_brief(e)} is not a pair") from None
        # has_vertex's rule, inline: this runs once per edge of every graph.
        if type(u) is not int or type(v) is not int or u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {_brief(e)} does not join two distinct vertices of 0..{n - 1}")
        adj[u].add(ids[v])
        adj[v].add(ids[u])


class Graph:
    """Immutable simple undirected graph: no self-loops, no parallel edges."""

    def __init__(self, n: int = 0):
        if type(n) is not int or n < 0:
            raise ValueError("vertex count must be a non-negative int")
        # The package's hot loops read _adj directly, without id checks.
        self._adj: list[set[int]] = [set() for _ in range(n)]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on ids 0..n-1 with the given edges, each a pair of
        distinct int ids (a bool is no id), else ValueError. A repeated
        edge counts once."""
        g = cls(n)
        _add_edges(g._adj, edges)
        return g

    @property
    def n(self) -> int:
        """Number of vertices; the ids are 0..n-1."""
        return len(self._adj)

    def _check(self, v: int) -> None:
        if not self.has_vertex(v):
            raise ValueError(f"vertex {v!r} is not in the graph")

    def has_vertex(self, v: int) -> bool:
        return type(v) is int and 0 <= v < len(self._adj)

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self._adj[u]

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self._adj[v])

    def neighbors(self, v: int) -> frozenset[int]:
        """The neighbors of v, as a frozen copy, so that no caller can
        change the graph through it."""
        self._check(v)
        return frozenset(self._adj[v])

    def vertices(self) -> range:
        return range(len(self._adj))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as (u, v) with u < v."""
        for u in self.vertices():
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def num_edges(self) -> int:
        return sum(map(len, self._adj)) // 2

    def is_connected(self) -> bool:
        """True iff every vertex is reachable from vertex 0.

        Vacuously true for fewer than two vertices.
        """
        adj = self._adj
        if not adj:
            return True
        seen = [False] * len(adj)
        seen[0] = True
        reached = [0]
        for v in reached:  # also yields the ones appended below
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    reached.append(w)
        return len(reached) == len(adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"
