import copy
import pickle
import random
from enum import IntEnum

import pytest

from halin import Graph, GraphFormatError, HalinCertificate, certificate_from_outer
from halin.io import (
    dumps_graph, graph_from_dict, graph_to_dict, load_certificate, save_certificate, save_graph,
    write_dot,
)
from halin.generators import make_wheel


def test_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    assert g.degree(0) == 1 and g.degree(1) == 1


def test_parallel_edges_collapse():
    g = Graph.from_edges(2, [(0, 1), (0, 1), (1, 0)])
    assert g.num_edges() == 1


def test_adjacency_holds_one_object_per_id():
    # Every id past the small-int cache comes as two distinct objects,
    # as a JSON parser would give them; the sets keep one per id.
    n = 1000
    g = Graph.from_edges(n, [(int(str(v)), int(str((v + 1) % n))) for v in range(n)])
    assert len({id(w) for nbrs in g._adj for w in nbrs}) == n


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2).degree(5)
    with pytest.raises(ValueError):
        Graph(2).has_edge(0, 5)


@pytest.mark.parametrize(
    "entry",
    [(1.0, 2), (1, 2.0), ("a", 2), (1, "a"), (None, 2), (1, None), (True, 2), (1, True),
     [0], [0, 1, 2], 5],
    ids=["float", "float-second", "str", "str-second", "none", "none-second",
         "bool", "bool-second", "one-id", "three-ids", "not-a-pair"],
)
def test_from_edges_rejects_entries_that_are_not_id_pairs(entry):
    with pytest.raises(ValueError):
        Graph.from_edges(3, [entry])


@pytest.mark.parametrize(
    "v", [1.5, True, "1", None, IntEnum("Id", "ONE").ONE],
    ids=["float", "bool", "str", "none", "int-enum"],
)
def test_accessors_take_only_int_ids(v):
    # One rule for vertex ids, the one _add_edges applies to every edge.
    g, _ = make_wheel(6)
    assert not g.has_vertex(v)
    for call in (g.degree, g.neighbors, lambda w: g.has_edge(w, 0), lambda w: g.has_edge(0, w)):
        with pytest.raises(ValueError):
            call(v)
    with pytest.raises(ValueError):
        Graph(v)
    with pytest.raises(GraphFormatError):
        graph_from_dict(dict(graph_to_dict(g), outer=[v]))


def test_public_surface_is_read_only():
    public = {name for name in dir(Graph) if not name.startswith("_")}
    assert public == {
        "n", "from_edges", "has_vertex", "has_edge", "degree", "neighbors",
        "vertices", "edges", "num_edges", "is_connected",
    }


def test_graph_holds_only_its_edges():
    # No record of a certificate lives on the graph, so it pickles and
    # copies by the default protocol, to a new graph with its edges.
    g = Graph.from_edges(4, [(0, 1)])
    assert list(vars(g)) == ["_adj"]
    assert "__getstate__" not in vars(Graph)
    for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert clone is not g and list(vars(clone)) == ["_adj"]
        assert sorted(clone.edges()) == [(0, 1)] and clone.n == 4


def test_repr_gives_the_vertex_and_edge_counts():
    assert repr(Graph()) == "Graph(n=0, m=0)"
    assert repr(make_wheel(4)[0]) == "Graph(n=4, m=6)"  # K4


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


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(7)
    for trial in range(25):
        n = rng.randint(1, 30)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        g = Graph.from_edges(n, [(u, v) for u, v in pairs if u != v])
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges()


def test_symmetry_after_mutations():
    # The 300 random adds and removes edit an edge list; the graph is built
    # from what is left, with repeats in either orientation.
    rng = random.Random(11)
    pairs = []
    for _ in range(300):
        op = rng.random()
        u, v = rng.randrange(20), rng.randrange(20)
        if op < 0.6 and u != v:
            pairs.append((u, v))
        elif op < 0.8:
            pairs = [p for p in pairs if {p[0], p[1]} != {u, v}]
    g = Graph.from_edges(20, pairs)
    assert g.num_edges() == len({frozenset(p) for p in pairs}) > 0
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


@pytest.mark.parametrize(
    "outer", [{99}, {-1}, {True, 2}, {1.0}, [1, 1]],
    ids=["out-of-range", "negative", "bool", "float", "repeated"],
)
def test_writer_rejects_each_outer_its_reader_rejects(tmp_path, outer):
    g, _ = make_wheel(6)
    with pytest.raises(GraphFormatError):
        graph_from_dict(dict(graph_to_dict(g), outer=list(outer)))
    message = "^outer must list distinct vertex ids of 0..5$"
    with pytest.raises(ValueError, match=message):
        dumps_graph(g, outer)
    path = tmp_path / "g.json"
    with pytest.raises(ValueError, match=message):
        save_graph(str(path), g, outer)
    assert not path.exists()


def test_certificate_writer_leaves_the_file_when_it_cannot_serialize(tmp_path):
    path = tmp_path / "cert.json"
    save_certificate(str(path), certificate_from_outer(*make_wheel(6)))
    before = path.read_bytes()
    bad = HalinCertificate(frozenset({1, "a"}), (1,), {}, 0)  # its outer does not sort
    with pytest.raises(TypeError):
        save_certificate(str(path), bad)
    assert path.read_bytes() == before


def test_certificate_writer_refuses_ids_its_reader_rejects(tmp_path):
    path = tmp_path / "cert.json"
    bad = HalinCertificate(frozenset({True, 2}), (1.5,), {"x": 0}, 0)
    with pytest.raises(ValueError, match="^certificate ids must all be ints$"):
        save_certificate(str(path), bad)
    assert not path.exists()
    # Each field on its own, the rest good: a wheel's certificate with one id replaced.
    good = certificate_from_outer(*make_wheel(6))
    save_certificate(str(path), good)
    assert load_certificate(str(path)) == good
    before = path.read_bytes()
    fields = vars(good)
    for name, value in [
        ("outer", good.outer - {0} | {0.0}), ("cycle_order", (*good.cycle_order[:-1], "4")),
        ("root", True), ("parent", {**good.parent, 0: 5.0}), ("parent", {str(v): p for v, p in good.parent.items()}),
    ]:
        with pytest.raises(ValueError, match="^certificate ids must all be ints$"):
            save_certificate(str(path), HalinCertificate(**{**fields, name: value}))
    assert path.read_bytes() == before


def test_dot_writer_leaves_the_file_when_a_color_is_missing(tmp_path):
    g, outer = make_wheel(6)
    path = tmp_path / "g.dot"
    write_dot(str(path), g, dict.fromkeys(g.vertices(), 1), outer)
    before = path.read_bytes()
    with pytest.raises(KeyError):
        write_dot(str(path), g, {0: 1}, outer)
    assert path.read_bytes() == before
