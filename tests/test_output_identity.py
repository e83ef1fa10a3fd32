"""Outputs pinned across rewrites of the core and of the command line,
and the one-pass certifier checked against the step-by-step certificate
builder."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import halin
from halin import (
    ColoringTrace,
    GenSpec,
    color_halin,
    generate,
    peo_halin,
    recognize,
    verify_halin,
)
from halin.cli import main
from halin.recognition import certify
from reference import halin_graphs, reference_certificate, relabel

# sha256 of [sorted outer, cycle_order, colors by vertex id, PEO order,
# sorted fills] for recognize -> color_halin -> peo_halin on seed 1 in
# generator labelling. Any change to a decision of the pipeline moves these.
PINNED = {
    ("halin", 50): "ff57979047cd601ed37c2f360ed7add895b5cd367dee3c15f7e5d13ffa54016c",
    ("halin", 500): "5943cc010970e8d2bb07590c47f59d45d5da9c83845cc3f5876687572aa8ae3e",
    ("halin_cubic", 50): "d8d4aa2b4c7ae44dcc1bbe9bf02fa4f09ed21f7ca0a8dc3b34b935ca78e596d9",
    ("halin_cubic", 500): "cd4212e539600b6257757a20a5a89c0528f811b8d92b8e1fdb8be385e6d34c10",
    ("necklace", 50): "cf60c69d5ff5b516ce238b8eeca69d61d2c79700854aaf598c6863d8414f7c12",
    ("necklace", 500): "af21504aa6c5242a4ae206f1a9ce9c566bc4452fc881cfe5ab6a8ddfa55d68d4",
    ("wheel", 51): "b48c8790abc624dfecacd6481b13f396d106a4d59389c230edf04fa90876d4eb",
    ("wheel", 500): "bd332b32f76d1b3d52d7e767311fd05b1fe1e640d5825e1d7ac496a51616ebc5",
}


@pytest.mark.parametrize("variant,n", sorted(PINNED))
def test_pipeline_output_is_pinned(variant, n):
    g, _ = generate(GenSpec(n, variant, seed=1))
    cert = recognize(g).certificate
    colors = color_halin(g, cert)
    peo = peo_halin(g, cert)
    doc = [
        sorted(cert.outer),
        list(cert.cycle_order),
        [colors[v] for v in range(g.n)],
        peo.order,
        sorted(peo.fill_edges),
    ]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == PINNED[(variant, n)]


# Specs on which color_halin takes case 4 (odd cycle, one tree color on
# it): four pick an odd true fan, two an odd pseudo-fan. sha256 of
# [case, colors by vertex id, [center, run, is_fan]] per spec, in order.
CASE4_SPECS = [
    ("halin", 11, 9),
    ("halin", 14, 0),
    ("halin", 16, 27),
    ("halin", 25, 19),
    ("halin_cubic", 16, 31),
    ("halin_cubic", 16, 39),
]
CASE4_PINNED = "022b53f43df0e4eee03107335355c6414eafa5aac0de5fd93dd62ff81aaf8b79"


def test_case4_output_is_pinned():
    doc = []
    for variant, n, seed in CASE4_SPECS:
        g, _ = generate(GenSpec(n, variant, seed=seed))
        trace = ColoringTrace()
        colors = color_halin(g, recognize(g).certificate, trace)
        assert trace.case == 4, (variant, n, seed)
        run = trace.odd_run
        doc.append([trace.case, [colors[v] for v in range(g.n)], [run.center, list(run.run), run.is_fan]])
    assert {is_fan for _, _, (_, _, is_fan) in doc} == {True, False}
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == CASE4_PINNED


# Every Halin graph with 3 to 8 leaves from reference.halin_graphs, in
# its own labelling and then in one random relabelling (seed 19). sha256
# of [case, colors by vertex id] per graph, in that order.
ENUMERATED_PINNED = "8f74777f0363226f6b5f8dd80e73323df6246a95567dff93689b02c428854d2a"


def test_enumerated_colors_are_pinned():
    rng = random.Random(19)
    doc = []
    for tree_graph, _ in halin_graphs(8):
        for g in (tree_graph, relabel(tree_graph, rng)[0]):
            trace = ColoringTrace()
            colors = color_halin(g, recognize(g).certificate, trace)
            doc.append([trace.case, [colors[v] for v in range(g.n)]])
    assert {case for case, _ in doc} == {1, 2, 3, 4}
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == ENUMERATED_PINNED


def _corpus():
    """Every generator variant at several sizes, in generator labelling
    and under one random relabelling each."""
    rng = random.Random(11)
    for variant, sizes in (
        ("halin", (4, 9, 30, 120)),
        ("halin_cubic", (4, 10, 30, 120)),
        ("necklace", (6, 10, 30, 120)),
        ("wheel", (4, 9, 30, 120)),
    ):
        for n in sizes:
            g, outer = generate(GenSpec(n, variant, seed=n))
            yield g, outer
            relabelled, perm = relabel(g, rng)
            yield relabelled, {perm[v] for v in outer}


def test_certify_matches_certificate_from_outer():
    # certificate_from_outer is certify itself; the reference is the
    # step-by-step builder it replaced.
    for g, outer in _corpus():
        assert certify(g, outer) == reference_certificate(g, outer)


def test_certify_rejects_perturbed_outer_sets():
    # K4 and the prism have several outer cycles, so a swap there can
    # land on another valid one. A larger necklace has two, but they share
    # only two of their k + 2 vertices, so no drop or swap of one vertex
    # turns one into the other; the other graphs here have just one.
    rng = random.Random(5)
    for g, outer in _corpus():
        if g.n <= 6:
            continue
        inner = sorted(set(g.vertices()) - outer)
        dropped = outer - {rng.choice(sorted(outer))}
        swapped = dropped | {rng.choice(inner)}
        for bad in (dropped, swapped):
            assert certify(g, bad) is None
            assert not verify_halin(g, bad)


# The halin command line, run in-process in an empty directory on small
# generated graphs (each with its "outer" field and without it) and on
# two non-Halin graphs. sha256 of [[argv, exit code, stdout] per run,
# {name: text} of every file in the directory afterwards].
CLI_SPECS = [
    ("halin", 20, 5), ("halin", 40, 2), ("halin-cubic", 16, 3),
    ("necklace", 12, 0), ("wheel", 6, 0), ("wheel", 9, 0),
]
NON_HALIN = {
    "c6": {"n": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]},
    "cube": {
        "n": 8,
        "edges": [[u, u ^ b] for u in range(8) for b in (1, 2, 4) if u < u ^ b],
        "outer": [0, 1, 3, 2],
    },
}
CLI_PINNED = "5c443830f1430ca4a3625c8c43eaf97ecaf1411c5d2562ef2bbbf10bf8dc8671"


def test_cli_output_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = []

    def run(*argv):
        code = main(list(argv))
        runs.append([list(argv), code, capsys.readouterr().out])

    inputs = []
    for variant, n, seed in CLI_SPECS:
        name = f"{variant}-{n}"
        spec = ["--variant", variant, "--n", str(n), "--seed", str(seed)]
        run("generate", *spec)
        run("generate", *spec, "--out", f"{name}.json")
        doc = json.loads((tmp_path / f"{name}.json").read_text())
        del doc["outer"]
        (tmp_path / f"{name}-bare.json").write_text(json.dumps(doc))
        inputs += [name, f"{name}-bare"]
    for name, doc in NON_HALIN.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        inputs.append(name)
    for name in inputs:
        graph = f"{name}.json"
        run("recognize", "--in", graph, "--emit-certificate", f"{name}.cert.json")
        run("color", "--in", graph, "--dot", f"{name}.dot")
        run("color", "--in", graph, "--certificate", f"{name}.cert.json")
        run("peo", "--in", graph, "--emit-completion", f"{name}.completion.json")
        run("peo", "--in", graph, "--certificate", f"{name}.cert.json")
        for mode in ("coloring", "chordal", "peo"):
            run("verify", "--in", graph, "--mode", mode)
    # A certificate of another graph, and a file that is not JSON.
    run("color", "--in", "halin-20.json", "--certificate", "halin-40.cert.json")
    (tmp_path / "broken.json").write_text('{"n": 4, "edges": [[0, 1]')
    run("peo", "--in", "broken.json")

    for name in NON_HALIN:
        # color, peo and the three verify modes say no; --certificate
        # names a file recognize did not write.
        codes = [code for argv, code, _ in runs if argv[2] == f"{name}.json" and argv[0] != "recognize"]
        assert codes == [1, 2, 1, 2, 1, 1, 1], name
    files = {path.name: path.read_text() for path in sorted(tmp_path.iterdir())}
    doc = json.dumps([runs, files])
    assert hashlib.sha256(doc.encode()).hexdigest() == CLI_PINNED


# sha256 of each demo's stdout.
DEMOS_PINNED = {
    "01_generate_and_recognize.py": "d0a30a79a4d391b903cfba004741aec338f775bdff8a4c319d6c3da019dfedbe",
    "02_vertex_coloring.py": "b78d8be483b5020a7e5f389dfdf44aabe57f5df9b29b2d0d00db8d533d48cd9d",
    "03_chordal_completion.py": "d8b499f152a92fdb173b5c84dc95169b95d17c8283855c744ce6a0ca3675a98b",
}


DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_every_demo_is_pinned():
    """A demo whose stdout cannot be pinned (timings, say) has no place in demos/."""
    assert sorted(DEMOS_PINNED) == sorted(path.name for path in DEMOS.glob("*.py"))


@pytest.mark.parametrize("demo", sorted(DEMOS_PINNED))
def test_demo_output_is_pinned(demo):
    src = os.path.dirname(os.path.dirname(halin.__file__))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], capture_output=True, env=dict(os.environ, PYTHONPATH=src)
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS_PINNED[demo]
