import random

import pytest

from halin import Graph, GraphFormatError
from halin.io import dumps_graph, graph_from_dict, graph_to_dict
from halin.generators import make_wheel


def test_single_edge():
    g = Graph(2)
    g.add_edge(0, 1)
    assert g.degree(0) == 1 and g.degree(1) == 1


def test_parallel_edges_collapse():
    g = Graph(2)
    g.add_edge(0, 1)
    g.add_edge(0, 1)
    assert g.num_edges() == 1


def test_self_loop_rejected():
    g = Graph(2)
    with pytest.raises(ValueError):
        g.add_edge(0, 0)


def test_out_of_range_rejected():
    g = Graph(2)
    with pytest.raises(ValueError):
        g.add_edge(0, 2)
    with pytest.raises(ValueError):
        g.degree(5)


def test_complete_graph_degrees():
    g, _ = make_wheel(4)
    assert all(g.degree(v) == 3 for v in g.vertices())


def test_wheel_degrees():
    g, _ = make_wheel(6)
    assert g.degree(5) == 5  # hub
    assert g.degree(0) == 3  # rim: two cycle neighbors plus the hub


def test_is_connected():
    g, _ = make_wheel(4)
    assert g.is_connected()
    h = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not h.is_connected()
    assert Graph(0).is_connected()
    assert Graph(1).is_connected()


def test_remove_edge():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    g.remove_edge(0, 1)
    assert not g.has_edge(0, 1)
    with pytest.raises(ValueError):
        g.remove_edge(0, 1)


def test_add_vertex_extends_ids():
    g = Graph(3)
    v = g.add_vertex()
    assert v == 3
    g.add_edge(0, v)
    assert g.has_edge(3, 0)


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(7)
    for trial in range(25):
        n = rng.randint(1, 30)
        g = Graph(n)
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                g.add_edge(u, v)
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges()


def test_symmetry_after_mutations():
    rng = random.Random(11)
    g = Graph(20)
    for _ in range(300):
        op = rng.random()
        u, v = rng.randrange(20), rng.randrange(20)
        if op < 0.6 and u != v:
            g.add_edge(u, v)
        elif op < 0.8 and g.has_edge(u, v):
            g.remove_edge(u, v)
    for u in g.vertices():
        for v in g.neighbors(u):
            assert u in g.neighbors(v)
            assert u != v


# JSON graph format


def test_json_round_trip():
    g, outer = make_wheel(6)
    obj = graph_to_dict(g, outer)
    g2, outer2 = graph_from_dict(obj)
    assert sorted(g2.edges()) == sorted(g.edges())
    assert outer2 == outer
    assert g2.n == g.n


def test_json_round_trip_without_outer():
    g, _ = make_wheel(5)
    g2, outer2 = graph_from_dict(graph_to_dict(g))
    assert outer2 is None
    assert sorted(g2.edges()) == sorted(g.edges())


def test_json_unknown_field_rejected():
    with pytest.raises(GraphFormatError):
        graph_from_dict({"n": 2, "edges": [[0, 1]], "weights": [1.0]})


@pytest.mark.parametrize(
    "obj",
    [
        {"edges": []},
        {"n": 2},
        {"n": -1, "edges": []},
        {"n": 2.0, "edges": []},
        {"n": 2, "edges": [[0, 0]]},
        {"n": 2, "edges": [[0, 5]]},
        {"n": 2, "edges": [[0]]},
        {"n": 2, "edges": "01"},
        {"n": 3, "edges": [[0, 1]], "outer": [0, 0]},
        {"n": 3, "edges": [[0, 1]], "outer": [7]},
        [1, 2],
    ],
)
def test_json_malformed_rejected(obj):
    with pytest.raises(GraphFormatError):
        graph_from_dict(obj)


def test_dumps_is_deterministic():
    a = dumps_graph(*make_wheel(7))
    b = dumps_graph(*make_wheel(7))
    assert a == b
    assert a.endswith("\n")
