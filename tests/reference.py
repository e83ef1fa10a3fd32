"""Step-by-step certificate builders, kept as the reference that the
one-pass ``certify`` is compared against.

``reference_certificate`` builds the canonical certificate of an outer
set from the two steps below, checking only that the outer set induces
a cycle and that the other edges form a spanning tree; ``certify``
must return an equal certificate on every Halin decomposition.
``is_halin_bruteforce`` is the exhaustive recognizer that ``recognize``
is compared against.
"""

from collections import deque
from itertools import combinations

from halin import Graph, HalinCertificate, MalformedCertificateError
from halin.oracles import MAX_ORACLE_VERTICES
from halin.recognition import certify


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
    adj = g._adj
    start = min(outer)
    first = sorted(adj[start] & outer)
    if len(first) != 2:
        raise ValueError(f"outer vertex {start} has {len(first)} outer neighbors")
    order = [start]
    prev, cur = start, first[0]
    while cur != start:
        order.append(cur)
        if len(order) > len(outer):
            raise ValueError("outer does not induce a single cycle")
        step = (adj[cur] & outer) - {prev}
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
    adj = g._adj
    cycle_edges = sum(1 for w in outer if g.has_vertex(w) for z in adj[w] if z in outer) // 2
    if g.num_edges() - cycle_edges != g.n - 1:
        raise MalformedCertificateError("non-cycle edges do not form a spanning tree")
    parent: dict[int, int] = {}
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w in seen or (v in outer and w in outer):
                continue
            seen.add(w)
            parent[w] = v
            queue.append(w)
    if len(seen) != g.n:
        raise MalformedCertificateError("non-cycle edges do not span the graph")
    return parent, root


def reference_certificate(g: Graph, outer: set[int]) -> HalinCertificate:
    """The certificate of ``outer`` built from the two steps above."""
    order = outer_cycle_order(g, outer)
    parent, root = inner_tree(g, outer)
    return HalinCertificate(frozenset(outer), tuple(order), parent, root)


def is_halin_bruteforce(g: Graph) -> bool:
    """True iff some set of vertices is the outer cycle of a Halin
    decomposition of ``g``.

    The inner tree has n - 1 edges, so the outer cycle has m - n + 1
    vertices, each of degree 3; every set of that many degree-3 vertices
    is tried with ``certify``.
    """
    if g.n > MAX_ORACLE_VERTICES:
        raise ValueError(f"size guard: brute force capped at n <= {MAX_ORACLE_VERTICES}")
    k = g.num_edges() - g.n + 1
    if k < 3:
        return False
    cubic = sorted(v for v in g.vertices() if g.degree(v) == 3)
    return any(certify(g, set(outer)) is not None for outer in combinations(cubic, k))
