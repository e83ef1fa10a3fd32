import json
import os
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
    verify_peo = halin.peo.verify_peo

    def counted(filled, order):
        calls.append(len(order))
        return verify_peo(filled, order)

    monkeypatch.setattr(halin.peo, "verify_peo", counted)
    monkeypatch.setattr(halin.cli, "verify_peo", counted, raising=False)
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


# A Halin graph whose certificate has root 0, outer {2, 4, 5, 6, 7} and
# cycle order 2, 4, 5, 6, 7, so that coercing ids with int() would read
# each of these loose documents as the true certificate.
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
}


@pytest.mark.parametrize("name", sorted(LOOSE_CERTIFICATES))
def test_loose_certificate_ids_are_format_errors(tmp_path, name):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(LOOSE_GRAPH))
    cert = tmp_path / "cert.json"
    assert main(["recognize", "--in", str(graph), "--emit-certificate", str(cert)]) == 0
    good = json.loads(cert.read_text())
    assert (good["root"], good["outer"], good["cycle_order"]) == (0, [2, 4, 5, 6, 7], [2, 4, 5, 6, 7])
    doc = dict(good, **LOOSE_CERTIFICATES[name])
    with pytest.raises(GraphFormatError):
        certificate_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    _assert_cli_format_error("color", "--in", graph, "--certificate", bad)


# One malformed graph document per rule of graph_from_dict's edge pass.
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


@pytest.mark.parametrize("name", sorted(MALFORMED_EDGES))
def test_malformed_edges_are_format_errors(tmp_path, name):
    doc = {"n": 4, "edges": MALFORMED_EDGES[name]}
    with pytest.raises(GraphFormatError):
        graph_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    _assert_cli_format_error("recognize", "--in", path)
