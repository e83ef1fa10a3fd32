import random
from itertools import combinations, permutations

import pytest

from halin import Graph, make_wheel, verify_peo
from reference import chromatic_number_bruteforce, is_chordal_bruteforce


def _random_graph(rng, n, p):
    return Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def test_chromatic_number_small_cases():
    assert chromatic_number_bruteforce(make_wheel(4)[0], 5) == 4
    assert chromatic_number_bruteforce(make_wheel(5)[0], 5) == 3
    assert chromatic_number_bruteforce(make_wheel(6)[0], 5) == 4
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert chromatic_number_bruteforce(c5, 5) == 3
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert chromatic_number_bruteforce(path, 5) == 2
    assert chromatic_number_bruteforce(Graph(3), 5) == 1
    assert chromatic_number_bruteforce(Graph(0), 5) == 0


def test_chromatic_number_none_when_budget_too_small():
    assert chromatic_number_bruteforce(make_wheel(6)[0], 3) is None


def test_chromatic_number_size_guards():
    with pytest.raises(ValueError):
        chromatic_number_bruteforce(Graph(17), 4)
    with pytest.raises(ValueError):
        chromatic_number_bruteforce(Graph(4), 6)


def test_chromatic_number_monotone_under_edge_addition():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(3, 9)
        g = _random_graph(rng, n, 0.4)
        non_edges = [
            (u, v) for u, v in combinations(range(n), 2) if not g.has_edge(u, v)
        ]
        if not non_edges:
            continue
        before = chromatic_number_bruteforce(g, 5)
        g = Graph.from_edges(n, [*g.edges(), rng.choice(non_edges)])
        after = chromatic_number_bruteforce(g, 5)
        if before is not None and after is not None:
            assert after >= before


def test_chordal_small_cases():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not is_chordal_bruteforce(c4)
    assert is_chordal_bruteforce(make_wheel(4)[0])
    w5_filled = Graph.from_edges(5, [*make_wheel(5)[0].edges(), (0, 2)])
    assert is_chordal_bruteforce(w5_filled)
    tree = Graph.from_edges(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
    assert is_chordal_bruteforce(tree)
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert not is_chordal_bruteforce(c5)
    assert not is_chordal_bruteforce(make_wheel(6)[0])


def test_chordal_size_guard():
    with pytest.raises(ValueError):
        is_chordal_bruteforce(Graph(17))


def test_cross_oracle_agreement_with_peo_search():
    # chordal iff some vertex order is a perfect elimination ordering
    rng = random.Random(42)
    for trial in range(40):
        n = rng.randint(3, 6)
        g = _random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        by_elimination = is_chordal_bruteforce(g)
        by_search = any(
            verify_peo(g, list(order)) for order in permutations(range(n))
        )
        assert by_elimination == by_search
