"""The fan test of recognition checked against a reference copy of the
general walk it replaced, and the wheel short-circuit of recognize."""

import random

import pytest

from halin import GenSpec, Graph, generate, make_wheel, recognize
from halin.recognition import _find_fan, certify


def _reference_find_fan(adj, v):
    """The fan test as it was before the two-vertex case was split off:
    one walk for every centre degree."""
    nbrs = adj[v]
    if len(nbrs) < 3:
        return None
    hinge = None
    for w in nbrs:
        if len(adj[w]) != 3:
            if hinge is not None:
                return None  # two neighbors of degree other than 3
            hinge = w
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


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()]), perm


def _corpus():
    """Every generator variant at several sizes, in generator labelling
    and under two random relabellings each."""
    rng = random.Random(23)
    for variant, sizes in (
        ("halin", (4, 5, 9, 17, 40, 150)),
        ("halin_cubic", (4, 8, 12, 40, 150)),
        ("necklace", (6, 8, 12, 40, 150)),
        ("wheel", (4, 5, 6, 9, 40)),
    ):
        for n in sizes:
            g, _ = generate(GenSpec(n, variant, seed=n))
            yield g
            for _ in range(2):
                yield _relabel(g, rng)[0]


def test_find_fan_matches_reference_during_contraction(monkeypatch):
    """Every call recognize makes, on the input and on each residue."""
    from halin import recognition

    calls = {"all": 0, "fans": 0}

    def checked(adj, v):
        got = _find_fan(adj, v)
        assert got == _reference_find_fan(adj, v)
        calls["all"] += 1
        calls["fans"] += got is not None
        return got

    monkeypatch.setattr(recognition, "_find_fan", checked)
    for g in _corpus():
        recognize(g)
    assert calls["fans"] > 500
    assert calls["all"] > calls["fans"]


def _local_graph(rng):
    """A centre 0 of degree 3-6 whose neighborhood holds a path, a hinge
    and some extra structure, padded with outside vertices so that most
    vertices have degree 3 and every degree stays at most 6."""
    d = rng.randint(3, 6)
    nb = list(range(1, d + 1))
    rng.shuffle(nb)
    edges = {(0, w) for w in nb}
    hinge, rest = nb[0], nb[1:]
    shape = rng.choice(["path", "hinge_edge", "path_cycle", "k4", "random"])
    if shape == "random":
        edges |= {(a, b) for i, a in enumerate(nb) for b in nb[i + 1:] if rng.random() < 0.4}
    elif shape == "k4":
        edges |= {(a, b) for i, a in enumerate(nb[:3]) for b in nb[i + 1:3]}
    elif shape == "path_cycle" and len(rest) >= 5:
        cut = rng.randint(2, len(rest) - 3)
        path, cycle = rest[:cut], rest[cut:]
        edges |= {(a, b) for a, b in zip(path, path[1:])}
        edges |= {(a, cycle[(i + 1) % len(cycle)]) for i, a in enumerate(cycle)}
    else:
        edges |= {(a, b) for a, b in zip(rest, rest[1:])}
        if shape == "hinge_edge":
            edges.add((hinge, rng.choice(rest)))
    adj = [set() for _ in range(d + 1)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    # Pad toward a target degree through a small shared pool of outside
    # vertices, so that path endpoints often share their outside neighbor.
    pool = []
    for w in range(1, d + 1):
        target = 3 if rng.random() < 0.8 else rng.randint(2, 6)
        while len(adj[w]) < target:
            free = [x for x in pool if len(adj[x]) < 6 and x not in adj[w]]
            if free and rng.random() < 0.7:
                x = rng.choice(free)
            else:
                x = len(adj)
                adj.append(set())
                pool.append(x)
            adj[w].add(x)
            adj[x].add(w)
    return adj


def test_find_fan_matches_reference_on_small_graphs():
    rng = random.Random(7)
    tested = fans = two_vertex = 0
    for _ in range(2000):
        adj = _local_graph(rng)
        assert max(map(len, adj)) <= 6
        for v in range(len(adj)):
            got = _find_fan(adj, v)
            assert got == _reference_find_fan(adj, v), (adj, v)
            tested += 1
            if got is not None:
                fans += 1
                two_vertex += len(got[0]) == 2
    assert tested > 10000
    assert two_vertex > 100 and fans - two_vertex > 100


@pytest.mark.parametrize("n", range(4, 41))
def test_wheels_recognized_with_rim_outer(n):
    rng = random.Random(n)
    g, rim = make_wheel(n)
    relabelled, perm = _relabel(g, rng)
    # A dead id in the middle of the id range: shift every id above it.
    dead = rng.randrange(n)
    holed = Graph.from_edges(
        n + 1, [(a + (a >= dead), b + (b >= dead)) for a, b in g.edges()]
    )
    holed.remove_vertex(dead)
    cases = (
        (g, rim),
        (relabelled, {perm[w] for w in rim}),
        (holed, {w + (w >= dead) for w in rim}),
    )
    for graph, expected in cases:
        cert = recognize(graph).certificate
        assert cert is not None
        if n == 4:
            # In K4 every vertex can be the hub; any three form a rim.
            assert len(cert.outer) == 3 and certify(graph, cert.outer) == cert
        else:
            assert cert.outer == expected
