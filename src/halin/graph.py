"""Simple undirected graph on dense integer vertex ids.

Vertices are ids 0..n-1 with adjacency stored as per-vertex sets.
Deletion uses a live-vertex mask so ids stay stable; ``add_vertex`` gives
a new vertex the next fresh id.
"""

from __future__ import annotations

import weakref
from collections import deque
from itertools import compress
from typing import Iterable, Iterator


class Graph:
    """Mutable simple undirected graph: no self-loops, no parallel edges."""

    def __init__(self, n: int = 0):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self._adj: list[set[int]] = [set() for _ in range(n)]
        self._alive: list[bool] = [True] * n
        self._n_live = n
        # A weak reference to the one certificate ``certify`` last built
        # for this graph, or None; every mutator resets it. A weak
        # reference keeps no certificate alive.
        self._certified: weakref.ref | None = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @property
    def n(self) -> int:
        """Number of live vertices."""
        return self._n_live

    @property
    def id_bound(self) -> int:
        """One past the largest id ever allocated (dead ids included)."""
        return len(self._adj)

    def _check(self, v: int) -> None:
        if not (0 <= v < len(self._adj)) or not self._alive[v]:
            raise ValueError(f"vertex {v} is not in the graph")

    def _adjacency(self) -> list[set[int]]:
        """The adjacency sets themselves, indexed by id; dead ids hold empty sets.

        Package-internal, for hot loops that have already validated their
        vertex ids and so skip the per-call checks. Read-only, except on a
        graph the caller made itself (e.g. a fresh ``copy()``).
        """
        return self._adj

    def has_vertex(self, v: int) -> bool:
        return 0 <= v < len(self._adj) and self._alive[v]

    def add_vertex(self) -> int:
        """Allocate a fresh isolated vertex and return its id."""
        self._certified = None
        self._adj.append(set())
        self._alive.append(True)
        self._n_live += 1
        return len(self._adj) - 1

    def remove_vertex(self, v: int) -> None:
        self._check(v)
        self._certified = None
        for w in self._adj[v]:
            self._adj[w].discard(v)
        self._adj[v] = set()
        self._alive[v] = False
        self._n_live -= 1

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop rejected at vertex {u}")
        self._check(u)
        self._check(v)
        self._certified = None
        self._adj[u].add(v)
        self._adj[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        self._check(u)
        self._check(v)
        if v not in self._adj[u]:
            raise ValueError(f"edge ({u}, {v}) is not in the graph")
        self._certified = None
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def has_edge(self, u: int, v: int) -> bool:
        return (
            0 <= u < len(self._adj)
            and self._alive[u]
            and v in self._adj[u]
        )

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self._adj[v])

    def neighbors(self, v: int) -> frozenset[int]:
        """The neighbors of v, as a frozen copy: changing the graph goes
        through the mutators, which also forget its certified certificate."""
        self._check(v)
        return frozenset(self._adj[v])

    def vertices(self) -> Iterator[int]:
        return compress(range(len(self._alive)), self._alive)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as (u, v) with u < v."""
        for u in self.vertices():
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def num_edges(self) -> int:
        return sum(map(len, self._adj)) // 2  # dead ids hold empty sets

    def is_connected(self) -> bool:
        """True iff every live vertex is reachable from the smallest one.

        Vacuously true for fewer than two vertices.
        """
        start = next(self.vertices(), None)
        if start is None:
            return True
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self._n_live

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g._adj = list(map(set.copy, self._adj))
        g._alive = list(self._alive)
        g._n_live = self._n_live
        g._certified = None
        return g

    def __getstate__(self) -> dict:
        # A weak reference cannot be pickled; the copy starts unchecked.
        return dict(self.__dict__, _certified=None)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges()})"
