"""Reference implementations the package is compared against.

``reference_certificate`` builds the canonical certificate of an outer
set from the two steps below and checks conditions (a)-(e) of
``certify`` one at a time, (e) by the naive ``leaves_form_arcs``; it
shares no code with ``certify``, which must return an equal certificate
on every Halin decomposition and None on every other outer set.
``is_halin_bruteforce`` is the exhaustive recognizer that ``recognize``
is compared against. It tries every candidate outer set through
``reference_certificate``, not through ``certify``, so a false
acceptance by ``certify`` cannot hide in it.
``chromatic_number_bruteforce`` and ``is_chordal_bruteforce`` are the
exhaustive checks that the witnesses of ``halin verify`` are compared
against. The three are deliberately naive and hard-capped at 16
vertices, so that a test can never wander into exponential territory
by accident. ``_proper`` checks a coloring edge by edge, with no cap.
``halin_graphs`` enumerates
every Halin graph up to a number of leaves, from its plane trees.
``reference_rims`` undoes a reduction trace around one hub at a time,
for the rims that ``recognition._rims`` recovers around all at once.
``relabel`` renames the vertices of a graph at random.
"""

from collections import Counter, deque
from functools import cache
from itertools import chain, combinations

from halin import Graph, HalinCertificate, MalformedCertificateError

MAX_ORACLE_VERTICES = 16
MAX_ORACLE_COLORS = 5


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


def leaves_form_arcs(parent: dict[int, int], root: int, order: list[int]) -> bool:
    """True iff the leaves below every vertex but ``root`` of the tree
    ``parent`` form one arc of the cycle ``order``, which lists the leaves.

    Each leaf walks up to the root and adds its cycle position to every
    vertex on the way, O(n * depth). A set of positions is one arc iff
    exactly one of them has its predecessor outside the set.
    """
    below: dict[int, set[int]] = {}
    for i, v in enumerate(order):
        while v != root:
            v = parent[v]
            below.setdefault(v, set()).add(i)
    k = len(order)
    return all(
        sum((i - 1) % k not in arc for i in arc) == 1 for v, arc in below.items() if v != root
    )


def reference_certificate(g: Graph, outer: set[int]) -> HalinCertificate:
    """The certificate of ``outer`` built from the two steps above, once
    it passes (c) the tree's leaves are exactly the outer vertices, (d) no
    inner vertex has tree-degree 2, and (e) ``leaves_form_arcs``.

    Raises ValueError (MalformedCertificateError past the first step) on
    the first condition that fails.
    """
    order = outer_cycle_order(g, outer)
    parent, root = inner_tree(g, outer)
    tree_degree = Counter(chain(parent, parent.values()))
    if {v for v in g.vertices() if tree_degree[v] == 1} != set(outer):
        raise MalformedCertificateError("the leaves of the tree are not the outer vertices")
    if any(tree_degree[v] == 2 for v in g.vertices() if v not in outer):
        raise MalformedCertificateError("an inner vertex has tree-degree 2")
    if not leaves_form_arcs(parent, root, order):
        raise MalformedCertificateError("the leaves of some subtree are not one arc of the cycle")
    return HalinCertificate(frozenset(outer), tuple(order), parent, root)


def reference_rims(n: int, trace: list[tuple[int, ...]], hubs: list[int]) -> list[frozenset[int]]:
    """The rim around each of ``hubs`` in turn, with the rules of
    ``trace`` undone, last first, on n vertices.

    The rules deleted the second vertex of every step and the third of
    every triangle, and left the others live. Around each hub the undo
    starts on a list of booleans, true for the live vertices but the hub.
    Undoing a merge (x, y) puts y on the rim exactly when x is; undoing a
    triangle puts each of x, y and v on it exactly when its outside
    neighbour x', y' or v' is.
    """
    deleted = {step[1] for step in trace} | {step[2] for step in trace if len(step) == 6}
    rims = []
    for hub in hubs:
        on_rim = [v not in deleted and v != hub for v in range(n)]
        for step in reversed(trace):
            if len(step) == 2:
                x, y = step
                on_rim[y] = on_rim[x]
            else:
                x, y, v, x_out, y_out, v_out = step
                on_rim[x], on_rim[y], on_rim[v] = on_rim[x_out], on_rim[y_out], on_rim[v_out]
        rims.append(frozenset(v for v in range(n) if on_rim[v]))
    return rims


def relabel(g: Graph, rng) -> tuple[Graph, list[int]]:
    """g with each vertex v renamed perm[v], for a permutation ``perm``
    shuffled by ``rng``, and that permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()]), perm


def halin_outer_sets(g: Graph):
    """Every set of vertices that is the outer cycle of a Halin
    decomposition of ``g``, each once as a frozenset, lazily.

    The inner tree has n - 1 edges, so the outer cycle has m - n + 1
    vertices, each of degree 3. Every cycle of that length through
    degree-3 vertices is found as a path from its smallest vertex and
    tried with ``reference_certificate``.
    """
    if g.n > MAX_ORACLE_VERTICES:
        raise ValueError(f"size guard: brute force capped at n <= {MAX_ORACLE_VERTICES}")
    k = g.num_edges() - g.n + 1
    cubic = [v for v in g.vertices() if g.degree(v) == 3]
    seen = set()
    for s in cubic if k >= 3 else ():
        paths = [[s]]
        while paths:
            path = paths.pop()
            if len(path) < k:
                paths += (
                    [*path, w] for w in g.neighbors(path[-1])
                    if w > s and g.degree(w) == 3 and w not in path
                )
                continue
            outer = frozenset(path)
            if outer in seen or not g.has_edge(path[-1], s):
                continue
            seen.add(outer)
            try:
                reference_certificate(g, outer)
            except ValueError:
                continue
            yield outer


def is_halin_bruteforce(g: Graph) -> bool:
    """True iff some set of vertices is the outer cycle of a Halin
    decomposition of ``g``: the first of ``halin_outer_sets``."""
    return next(halin_outer_sets(g), None) is not None


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


def _proper(g: Graph, colors: dict[int, int]) -> bool:
    """True iff no edge of ``g`` joins two vertices of the same color."""
    return all(colors[u] != colors[v] for u, v in g.edges())



def halin_graphs(max_leaves: int):
    """Every Halin graph with 3 to ``max_leaves`` leaves, as (graph, outer
    set), once per plane tree whose root has at least three children and
    whose other inner nodes have at least two.

    Such trees with L leaves number the little Schröder numbers (OEIS
    A001003) less the trees whose root has two children. Each tree is
    numbered in preorder from the root, 0, and its leaves are closed
    into a cycle in their plane order.
    """
    for leaves in range(3, max_leaves + 1):
        for kids in _forests(leaves):
            if len(kids) >= 3:
                yield _close_leaves(kids)


@cache
def _plane_trees(leaves: int) -> tuple:
    """Every plane tree with ``leaves`` leaves whose inner nodes have at
    least two children, each as the tuple of its children's trees: a
    leaf is ()."""
    if leaves == 1:
        return ((),)
    return tuple(
        (first, *rest)
        for k in range(1, leaves)
        for first in _plane_trees(k)
        for rest in _forests(leaves - k)
    )


@cache
def _forests(leaves: int) -> tuple:
    """Every non-empty sequence of such trees with ``leaves`` leaves in all."""
    return tuple(
        (first, *rest)
        for k in range(1, leaves + 1)
        for first in _plane_trees(k)
        for rest in (_forests(leaves - k) if k < leaves else ((),))
    )


def _close_leaves(root: tuple) -> tuple[Graph, set[int]]:
    """The tree ``root`` plus the cycle through its leaves, in plane order."""
    edges, leaves = [], []
    stack = [(root, 0)]
    count = 1
    while stack:
        kids, v = stack.pop()
        if not kids:
            leaves.append(v)
        ids = range(count, count + len(kids))
        count += len(kids)
        edges += [(v, w) for w in ids]
        stack += reversed(list(zip(kids, ids)))
    edges += zip(leaves, leaves[1:] + leaves[:1])
    return Graph.from_edges(count, edges), set(leaves)
