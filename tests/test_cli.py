import json
import os
import random
import subprocess
import sys

import pytest

import halin
from halin.cli import main
from halin.io import (
    GraphFormatError,
    certificate_from_dict,
    dumps_graph,
    graph_from_dict,
    load_certificate,
    load_graph,
)
from halin.generators import make_wheel


def _out(capsys):
    return json.loads(capsys.readouterr().out)


def test_generate_then_color_even_wheel(tmp_path, capsys):
    path = tmp_path / "w6.json"
    assert main(["generate", "--variant", "wheel", "--n", "6", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["color", "--in", str(path)]) == 0
    report = _out(capsys)
    assert report["num_colors"] == 4


def test_generate_then_recognize_round_trip(tmp_path, capsys):
    path = tmp_path / "h10.json"
    assert (
        main(
            [
                "generate", "--variant", "halin", "--n", "10",
                "--seed", "7", "--out", str(path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["recognize", "--in", str(path)]) == 0
    assert _out(capsys)["halin"] is True


def test_generate_to_stdout_is_deterministic(capsys):
    args = ["generate", "--variant", "halin-cubic", "--n", "12", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    obj = json.loads(first)
    assert set(obj) == {"n", "edges", "outer"}


def test_missing_file_is_usage_error(capsys):
    assert main(["color", "--in", "missing.json"]) == 2


def test_unknown_field_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 4, "edges": [[0, 1]], "color": 3}')
    assert main(["recognize", "--in", str(path)]) == 2


def test_recognize_rejects_non_halin(tmp_path, capsys):
    path = tmp_path / "c5.json"
    path.write_text(
        json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]})
    )
    assert main(["recognize", "--in", str(path)]) == 1
    report = _out(capsys)
    assert report["halin"] is False
    assert "reason" in report


def test_generate_rejects_bad_parameters(capsys):
    assert main(["generate", "--variant", "wheel", "--n", "3"]) == 2
    assert main(["generate", "--variant", "halin-cubic", "--n", "9"]) == 2
    assert main(["generate", "--variant", "necklace", "--n", "7"]) == 2


@pytest.mark.parametrize(
    "variant,n,line",
    [
        ("wheel", 3, "wheel needs at least 4 vertices"),
        ("necklace", 4, "necklace needs spine length at least 2, so at least 6 vertices"),
        ("necklace", 7, "necklace requires an even vertex count"),
        ("halin", 3, "Halin graphs need at least 4 vertices"),
        ("halin-cubic", 3, "Halin graphs need at least 4 vertices"),
        ("halin-cubic", 9, "cubic Halin graphs need an even vertex count"),
    ],
)
def test_generate_error_lines_are_pinned(capsys, variant, n, line):
    assert main(["generate", "--variant", variant, "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {line}\n")


def test_certificate_emission_and_reuse(tmp_path, capsys):
    graph = tmp_path / "g.json"
    cert = tmp_path / "cert.json"
    main(["generate", "--variant", "halin", "--n", "20", "--seed", "5", "--out", str(graph)])
    assert main(["recognize", "--in", str(graph), "--emit-certificate", str(cert)]) == 0
    cert_obj = json.loads(cert.read_text())
    assert set(cert_obj) == {"outer", "cycle_order", "root", "parent"}
    capsys.readouterr()
    assert main(["color", "--in", str(graph), "--certificate", str(cert)]) == 0
    assert _out(capsys)["num_colors"] == 3


def test_peo_pipeline_with_completion(tmp_path, capsys):
    graph = tmp_path / "g.json"
    completion = tmp_path / "comp.json"
    main(["generate", "--variant", "halin", "--n", "15", "--seed", "2", "--out", str(graph)])
    capsys.readouterr()
    assert main(["peo", "--in", str(graph), "--emit-completion", str(completion)]) == 0
    report = _out(capsys)
    assert sorted(report["order"]) == list(range(15))
    comp, _ = load_graph(str(completion))
    g, _ = load_graph(str(graph))
    assert comp.num_edges() == g.num_edges() + len(report["fill_edges"])


def test_color_runs_recognition_when_outer_missing(tmp_path, capsys):
    g, _ = make_wheel(5)
    path = tmp_path / "w5.json"
    path.write_text(dumps_graph(g))  # no outer field
    assert main(["color", "--in", str(path)]) == 0
    assert _out(capsys)["num_colors"] == 3


def test_mismatched_certificate_is_format_error(tmp_path, capsys):
    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    cert = tmp_path / "cert.json"
    main(["generate", "--variant", "halin", "--n", "20", "--seed", "5", "--out", str(g1)])
    main(["generate", "--variant", "halin", "--n", "24", "--seed", "6", "--out", str(g2)])
    main(["recognize", "--in", str(g1), "--emit-certificate", str(cert)])
    capsys.readouterr()
    assert main(["color", "--in", str(g2), "--certificate", str(cert)]) == 2


def test_wrong_outer_field_falls_back_to_recognition(tmp_path, capsys):
    g, _ = make_wheel(7)
    path = tmp_path / "w7.json"
    obj = json.loads(dumps_graph(g, {0, 1, 2, 3}))  # not a valid outer set
    path.write_text(json.dumps(obj))
    assert main(["color", "--in", str(path)]) == 0
    assert _out(capsys)["num_colors"] == 3


def test_dot_export(tmp_path, capsys):
    graph = tmp_path / "g.json"
    dot = tmp_path / "g.dot"
    main(["generate", "--variant", "wheel", "--n", "7", "--out", str(graph)])
    capsys.readouterr()
    assert main(["color", "--in", str(graph), "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("graph halin {")
    assert text.count("penwidth") == 6  # cycle edges drawn distinctly
    assert "fillcolor" in text


@pytest.mark.parametrize("mode", ["coloring", "chordal", "peo"])
def test_verify_modes(tmp_path, capsys, mode):
    graph = tmp_path / "g.json"
    main(["generate", "--variant", "halin", "--n", "12", "--seed", "1", "--out", str(graph)])
    capsys.readouterr()
    if mode == "chordal":
        # a Halin graph on >= 5 vertices is never chordal itself
        assert main(["verify", "--in", str(graph), "--mode", mode]) == 1
        assert _out(capsys)["chordal"] is False
    else:
        assert main(["verify", "--in", str(graph), "--mode", mode]) == 0
        assert _out(capsys)["ok"] is True


def test_verify_peo_mode_checks_the_order_once(tmp_path, capsys, monkeypatch):
    import halin.peo

    calls = []
    walk = halin.peo._peo_width

    def counted(filled, order):
        calls.append(len(order))
        return walk(filled, order)

    monkeypatch.setattr(halin.peo, "_peo_width", counted)
    graph = tmp_path / "g.json"
    main(["generate", "--variant", "halin", "--n", "30", "--seed", "2", "--out", str(graph)])
    capsys.readouterr()
    assert main(["verify", "--in", str(graph), "--mode", "peo"]) == 0
    out = _out(capsys)
    assert out["peo_valid"] is True and out["treewidth"] == 3
    assert calls == [30]


@pytest.mark.parametrize("mode", ["coloring", "peo"])
def test_verify_loads_its_input_once(tmp_path, capsys, monkeypatch, mode):
    calls = []

    def counted(path):
        calls.append(path)
        return load_graph(path)

    graph = tmp_path / "g.json"
    main(["generate", "--variant", "halin", "--n", "12", "--seed", "1", "--out", str(graph)])
    capsys.readouterr()
    monkeypatch.setattr(halin.io, "load_graph", counted)
    assert main(["verify", "--in", str(graph), "--mode", mode]) == 0
    assert _out(capsys)["ok"] is True
    assert calls == [str(graph)]


def test_verify_chordal_decides_at_any_size(tmp_path, capsys):
    cycle = tmp_path / "c20.json"
    cycle.write_text(json.dumps({"n": 20, "edges": [[i, (i + 1) % 20] for i in range(20)]}))
    assert main(["verify", "--in", str(cycle), "--mode", "chordal"]) == 1
    assert _out(capsys) == {"mode": "chordal", "chordal": False, "ok": False}
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"n": 40, "edges": [[i // 2, i] for i in range(1, 40)]}))
    assert main(["verify", "--in", str(tree), "--mode", "chordal"]) == 0
    assert _out(capsys) == {"mode": "chordal", "chordal": True, "ok": True}


def test_verify_answers_above_16_vertices(tmp_path, capsys):
    graph, completion, wheel = (tmp_path / name for name in ("g.json", "c.json", "w.json"))
    main(["generate", "--variant", "halin", "--n", "30", "--seed", "7", "--out", str(graph)])
    main(["peo", "--in", str(graph), "--emit-completion", str(completion)])
    main(["generate", "--variant", "wheel", "--n", "40", "--out", str(wheel)])
    capsys.readouterr()
    assert main(["verify", "--in", str(completion), "--mode", "chordal"]) == 0
    assert _out(capsys)["chordal"] is True
    assert main(["verify", "--in", str(graph), "--mode", "coloring"]) == 0
    assert _out(capsys)["chromatic_number"] == 3
    assert main(["verify", "--in", str(graph), "--mode", "peo"]) == 0
    assert _out(capsys)["chordal"] is True
    assert main(["verify", "--in", str(wheel), "--mode", "coloring"]) == 0
    assert _out(capsys)["chromatic_number"] == 4


def test_verify_peo_mode_searches_only_when_the_order_fails(tmp_path, capsys, monkeypatch):
    import halin.peo

    # The first walk, over peo_halin's order, fails; _is_chordal's own walk
    # runs the real test and finds the completion chordal.
    walks = []
    real = halin.peo._peo_width

    def rejected_once(filled, order):
        walks.append(order)
        return None if len(walks) == 1 else real(filled, order)

    monkeypatch.setattr(halin.peo, "_peo_width", rejected_once)
    graph = tmp_path / "g.json"
    main(["generate", "--variant", "halin", "--n", "30", "--seed", "2", "--out", str(graph)])
    capsys.readouterr()
    assert main(["verify", "--in", str(graph), "--mode", "peo"]) == 1
    out = _out(capsys)
    assert (out["peo_valid"], out["treewidth"], out["chordal"], out["ok"]) == (False, None, True, False)
    assert len(walks) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["recognize"])  # missing --in
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--algorithm", "color"])  # no such command
    assert exc.value.code == 2


def _tampered_certificates(tmp_path):
    """A graph file and four tampered certificate documents for it."""
    graph = tmp_path / "g.json"
    cert = tmp_path / "cert.json"
    main(["generate", "--variant", "halin", "--n", "20", "--seed", "3", "--out", str(graph)])
    assert main(["recognize", "--in", str(graph), "--emit-certificate", str(cert)]) == 0
    good = json.loads(cert.read_text())
    swapped = dict(good)
    cyc = list(good["cycle_order"])
    cyc[1], cyc[2] = cyc[2], cyc[1]
    swapped["cycle_order"] = cyc
    listed = dict(good, parent=list(good["parent"].values()))
    # The same cycle from another start or in the other direction.
    rotated = dict(good, cycle_order=good["cycle_order"][3:] + good["cycle_order"][:3])
    reversed_ = dict(good, cycle_order=good["cycle_order"][::-1])
    docs = {}
    for name, doc in (
        ("swapped", swapped), ("listed", listed), ("rotated", rotated), ("reversed", reversed_)
    ):
        docs[name] = tmp_path / f"{name}.json"
        docs[name].write_text(json.dumps(doc))
    return graph, docs


def _assert_cli_format_error(*args):
    """Run the CLI in a subprocess; it must exit 2 with a one-line error."""
    src = os.path.dirname(os.path.dirname(halin.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "halin.cli", *map(str, args)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    return proc


@pytest.mark.parametrize(
    "command,doc",
    [
        ("color", "swapped"), ("peo", "swapped"), ("color", "listed"),
        ("color", "rotated"), ("peo", "rotated"), ("color", "reversed"), ("peo", "reversed"),
    ],
)
def test_tampered_certificate_is_format_error(tmp_path, command, doc):
    graph, docs = _tampered_certificates(tmp_path)
    _assert_cli_format_error(command, "--in", graph, "--certificate", docs[doc])


def _main_under_memory_limit(megabytes, *args):
    """Run ``main(args)`` in a child that first limits its own address space."""
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({megabytes} << 20, {megabytes} << 20))\n"
        "from halin.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(halin.__file__))
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )


def test_huge_vertex_count_is_a_format_error_under_a_memory_limit(tmp_path):
    # "n" may not exceed 2 * len(edges) + 1, so a short document cannot
    # make the reader allocate 10**9 adjacency sets, even in 300 MB.
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1000000000, "edges": []}')
    proc = _main_under_memory_limit(300, "recognize", "--in", path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == 'error: "n" must be at most 2 * (number of edges) + 1\n'


def test_running_out_of_memory_is_an_error_line_not_a_traceback():
    # A wheel of 2 * 10**8 vertices does not fit in 400 MB: building it
    # raises MemoryError, which exits 2 like any error the command cannot
    # get past, not 1, the exit of a negative decision.
    proc = _main_under_memory_limit(400, "generate", "--variant", "wheel", "--n", 200_000_000)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: MemoryError\n"


@pytest.mark.parametrize(
    "doc,line",
    [
        ('{"n": 3, "edges": [[0, 1]], "outer": 3}', '"outer" must be an array of vertex ids'),
        ('{"n": 3, "edges": [[0, 1]], "outer": [0, "1"]}', '"outer" must be an array of vertex ids'),
        ('{"n": 1, "edges": []}', None),
        ('{"n": 2, "edges": []}', '"n" must be at most 2 * (number of edges) + 1'),
        ('{"n": 5, "edges": [[0, 1], [2, 3]]}', None),
        ('{"n": 6, "edges": [[0, 1], [2, 3]]}', '"n" must be at most 2 * (number of edges) + 1'),
    ],
)
def test_vertex_count_is_bounded_by_the_edge_list(tmp_path, capsys, doc, line):
    # One vertex may touch no edge; a second is a format error, checked
    # before any outer set. Within the bound the outer checks still run.
    path = tmp_path / "g.json"
    path.write_text(doc)
    code = main(["recognize", "--in", str(path)])
    err = capsys.readouterr().err
    if line is None:
        assert (code, err) == (1, "")
    else:
        assert (code, err) == (2, f"error: {line}\n")


# A Halin graph whose certificate has root 0, outer {2, 4, 5, 6, 7} and
# cycle order 2, 4, 5, 6, 7, so that coercing ids with int() would read
# each of these loose documents as the true certificate. Each entry
# replaces fields of that certificate; the files after it are malformed
# as a whole.
LOOSE_GRAPH = {
    "n": 8,
    "edges": [[0, 1], [0, 3], [0, 7], [1, 2], [1, 4], [3, 5], [3, 6],
              [2, 4], [4, 5], [5, 6], [6, 7], [2, 7]],
}
LOOSE_CERTIFICATES = {
    "float-root": {"root": 0.7},
    "bool-parent": {"parent": {"1": 0, "2": True, "3": 0, "4": 1, "5": 3, "6": 3, "7": 0}},
    "float-outer": {"outer": [2.0, 4, 5, 6, 7]},
    "string-outer": {"outer": "24567"},
    "string-cycle-order": {"cycle_order": "24567"},
    "float-parent-key": {"parent": {"1.0": 0, "2": 1, "3": 0, "4": 1, "5": 3, "6": 3, "7": 0}},
    "unknown-field": {"signature": "0"},
    "repeated-outer-id": {"outer": [2, 4, 5, 6, 7, 2]},
}
MALFORMED_CERTIFICATE_FILES = {
    "missing-field": '{"outer": [2, 4, 5, 6, 7], "cycle_order": [2, 4, 5, 6, 7], "root": 0}',
    "not-an-object": "[2, 4, 5, 6, 7]",
    "invalid-json": '{"outer": [2, 4, 5',
    "deeply-nested": '{"outer": [2, 4, 5, 6, 7], "cycle_order": [2, 4, 5, 6, 7], "root": 0, '
    + '"parent": ' + '{"1": ' * 100_000 + "0" + "}" * 100_000 + "}",
}


@pytest.mark.parametrize("name", sorted(LOOSE_CERTIFICATES) + sorted(MALFORMED_CERTIFICATE_FILES))
def test_loose_certificate_ids_are_format_errors(tmp_path, name):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(LOOSE_GRAPH))
    cert = tmp_path / "cert.json"
    assert main(["recognize", "--in", str(graph), "--emit-certificate", str(cert)]) == 0
    good = json.loads(cert.read_text())
    assert (good["root"], good["outer"], good["cycle_order"]) == (0, [2, 4, 5, 6, 7], [2, 4, 5, 6, 7])
    bad = tmp_path / "bad.json"
    bad.write_text(
        MALFORMED_CERTIFICATE_FILES.get(name) or json.dumps(dict(good, **LOOSE_CERTIFICATES[name]))
    )
    with pytest.raises(GraphFormatError):
        load_certificate(str(bad))
    _assert_cli_format_error("color", "--in", graph, "--certificate", bad)


# Each place where a document holds an id or a count, and the exact line
# its reader raises for a float, a bool or a string there.
ID_ERRORS = {
    "n": '"n" must be a non-negative integer',
    "outer": '"outer" must be an array of vertex ids',
    "cert-outer": 'bad certificate: "outer" must be an array of vertex ids',
    "cert-cycle_order": 'bad certificate: "cycle_order" must be an array of vertex ids',
    "cert-root": 'bad certificate: "root" must be a vertex id',
    "cert-parent": 'bad certificate: "parent" must map vertex ids to vertex ids',
}


def _with_id(place, x):
    """LOOSE_GRAPH or its certificate with ``x`` at ``place``."""
    cert = {"outer": [2, 4, 5, 6, 7], "cycle_order": [2, 4, 5, 6, 7], "root": 0,
            "parent": {"1": 0, "2": 1, "3": 0, "4": 1, "5": 3, "6": 3, "7": 0}}
    if place == "n":
        return graph_from_dict, dict(LOOSE_GRAPH, n=x)
    if place == "outer":
        return graph_from_dict, dict(LOOSE_GRAPH, outer=[2, x, 5, 6, 7])
    field = place.removeprefix("cert-")
    if field == "root":
        return certificate_from_dict, dict(cert, root=x)
    if field == "parent":
        return certificate_from_dict, dict(cert, parent=dict(cert["parent"], **{"5": x}))
    return certificate_from_dict, dict(cert, **{field: [2, 4, x, 6, 7]})


@pytest.mark.parametrize("x", [4.0, True, "4"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("place", sorted(ID_ERRORS))
def test_id_error_lines_are_pinned(place, x):
    read, doc = _with_id(place, x)
    with pytest.raises(GraphFormatError) as err:
        read(doc)
    assert str(err.value) == ID_ERRORS[place]


@pytest.mark.parametrize(
    "outer,v", [([2, 9, 8], 8), ([-1, 2], -1), ([2, 4, 10**9], 10**9)], ids=["n", "negative", "large"]
)
def test_outer_error_names_an_out_of_range_vertex(outer, v):
    with pytest.raises(GraphFormatError) as err:
        graph_from_dict(dict(LOOSE_GRAPH, outer=outer))
    assert str(err.value) == f"outer vertex {v} is out of range"


# One malformed graph document per rule of graph_from_dict's edge pass,
# then graph files malformed in another way.
MALFORMED_EDGES = {
    "non-int-id": [[0, "1"], [1, 2]],
    "float-id": [[0, 1.0], [1, 2]],
    "bool-id": [[0, True], [1, 2]],
    "self-loop": [[0, 1], [2, 2]],
    "negative-id": [[0, 1], [-1, 2]],
    "id-too-large": [[0, 1], [2, 4]],
    "duplicate-reversed": [[0, 1], [1, 2], [1, 0]],
    "duplicate-same": [[0, 1], [1, 2], [0, 1]],
}
MALFORMED_GRAPH_FILES = {
    "outer-not-array": '{"n": 4, "edges": [[0, 1]], "outer": 3}',
    "outer-not-ids": '{"n": 4, "edges": [[0, 1]], "outer": [0, "1", 2]}',
    "invalid-json": '{"n": 4, "edges": [[0, 1]',
    "deeply-nested": '{"n": 4, "edges": ' + "[" * 200_000 + "]" * 200_000 + "}",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_EDGES) + sorted(MALFORMED_GRAPH_FILES))
def test_malformed_edges_are_format_errors(tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(
        MALFORMED_GRAPH_FILES.get(name) or json.dumps({"n": 4, "edges": MALFORMED_EDGES[name]})
    )
    with pytest.raises(GraphFormatError):
        load_graph(str(path))
    _assert_cli_format_error("recognize", "--in", path)


# Files whose error message names a large part of the input: an edge entry
# of a million characters, 100,000 unknown fields, a parent key of a
# million characters. The message must cut what it repeats.
LARGE_ECHO_FILES = {
    "long-edge-entry": lambda: {"n": 3, "edges": [[0, "x" * 10**6]]},
    "many-unknown-fields": lambda: {"n": 3, "edges": [], **dict.fromkeys(map(str, range(10**5)), 0)},
    "long-parent-key": lambda: {
        "outer": [0], "cycle_order": [0], "root": 0, "parent": {"x" * 10**6: 0},
    },
}


@pytest.mark.parametrize("name", sorted(LARGE_ECHO_FILES))
def test_errors_cut_the_input_they_repeat(tmp_path, name):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(LARGE_ECHO_FILES[name]()))
    if name == "long-parent-key":
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(LOOSE_GRAPH))
        proc = _assert_cli_format_error("color", "--in", graph, "--certificate", bad)
    else:
        proc = _assert_cli_format_error("recognize", "--in", bad)
    assert len(proc.stderr.encode()) < 1024


# Hostile documents: seeded mutations of valid graph and certificate
# documents, each run through every command in process. A certificate's
# "edges" are its parent entries. Every run must exit 0, 1 or 2, and exit 2
# with one error line; any other exception fails the test.
FUZZ_GRAPHS = [("halin", 12, 1), ("halin-cubic", 14, 2), ("wheel", 7, 0), ("wheel", 8, 0),
               ("necklace", 10, 0)]
FUZZ_COMMANDS = [
    ["recognize", "--emit-certificate", "out.json"],
    ["color"],
    ["color", "--certificate", "cert.json"],
    ["peo", "--emit-completion", "out.json"],
    ["peo", "--certificate", "cert.json"],
    ["verify", "--mode", "coloring"],
    ["verify", "--mode", "chordal"],
    ["verify", "--mode", "peo"],
]
WRONG_VALUES = (None, 1.5, True, "1", [[0]])


def _edges(doc):
    if "edges" in doc:
        return doc["edges"]
    return [[int(v), p] for v, p in doc["parent"].items()]


def _with_edges(doc, edges):
    if "edges" in doc:
        return dict(doc, edges=edges)
    return dict(doc, parent={str(v): p for v, p in edges})


def _shift_ids(doc, d):
    out = {}
    for key, value in doc.items():
        if key == "n":
            out[key] = value
        elif key == "parent":
            out[key] = {str(int(v) + d): p + d for v, p in value.items()}
        elif key == "root":
            out[key] = value + d
        else:  # edges, outer, cycle_order
            out[key] = json.loads(json.dumps(value), parse_int=lambda x: int(x) + d)
    return out


def _slots(obj):
    """Every (container, key) that holds a value, at any depth."""
    if not isinstance(obj, (dict, list)):
        return
    keys = obj.keys() if isinstance(obj, dict) else range(len(obj))
    for key in keys:
        yield obj, key
        if isinstance(obj[key], (dict, list)):
            yield from _slots(obj[key])


def _mutate(doc, rng):
    doc = json.loads(json.dumps(doc))
    edges = _edges(doc)
    kind = rng.randrange(5)
    if kind == 0:
        del edges[rng.randrange(len(edges))]
    elif kind == 1:
        n = len(edges) + 2
        edges.append([rng.randrange(n), rng.randrange(n)])
    elif kind == 2:
        return _shift_ids(doc, rng.choice((-1, 1)))
    elif kind == 3:
        i, j = rng.sample(range(len(edges)), 2)
        edges[i][1], edges[j][1] = edges[j][1], edges[i][1]
    else:
        # A whole field or one value inside it, so every field is hit often.
        field = rng.choice(sorted(doc))
        inner = [] if rng.randrange(2) else list(_slots(doc[field]))
        container, key = rng.choice(inner) if inner else (doc, field)
        container[key] = rng.choice(WRONG_VALUES)
        return doc
    return _with_edges(doc, edges)


def _hostile_documents(good, rng, rotate):
    """Each field of either document replaced whole by a wrong type, each
    wrong type once per field over five rotations; then 25 documents with
    one random mutation of either document."""
    fields = [(name, field) for name in sorted(good) for field in sorted(good[name])]
    for i, (name, field) in enumerate(fields):
        wrong = WRONG_VALUES[(i + rotate) % len(WRONG_VALUES)]
        yield dict(good, **{name: dict(good[name], **{field: wrong})})
    for _ in range(25):
        target = rng.choice(sorted(good))
        yield dict(good, **{target: _mutate(good[target], rng)})


def test_hostile_documents_exit_0_1_or_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(2024)
    for rotate, (variant, n, seed) in enumerate(FUZZ_GRAPHS):
        spec = ["--variant", variant, "--n", str(n), "--seed", str(seed)]
        assert main(["generate", *spec, "--out", "g.json"]) == 0
        assert main(["recognize", "--in", "g.json", "--emit-certificate", "cert.json"]) == 0
        capsys.readouterr()
        good = {name: json.loads((tmp_path / name).read_text()) for name in ("g.json", "cert.json")}
        for docs in _hostile_documents(good, rng, rotate):
            for name, doc in docs.items():
                (tmp_path / name).write_text(json.dumps(doc))
            for command in FUZZ_COMMANDS:
                code = main([command[0], "--in", "g.json", *command[1:]])
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (command, docs)
                if code == 2:
                    assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
