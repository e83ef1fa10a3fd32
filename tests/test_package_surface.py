"""The package as its callers see it: which modules each command imports,
the public names ``import halin`` resolves on first use, and the value
semantics of the result types."""

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys

import pytest

import halin
from halin import (
    ColoringTrace,
    GenSpec,
    HalinCertificate,
    MalformedCertificateError,
    color_halin,
    generate,
    make_wheel,
    peo_halin,
    recognize,
    save_graph,
)

SRC = os.path.dirname(os.path.dirname(halin.__file__))


def _child(code, *args, cwd):
    """Run ``code`` in a fresh interpreter that imports halin from SRC and
    give back the JSON document it prints last. The interpreter runs with
    ``-S``, as some hosts' ``site`` preloads modules (``typing`` among
    them) that a stock Python loads only on request."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *map(str, args)],
        capture_output=True, text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# The modules `import halin.cli` adds to those of `python -c pass`, then
# the halin modules one command adds on top of those.
IMPORTS_CHILD = """
import sys
before = set(sys.modules)
import halin.cli
loaded = set(sys.modules) - before
import contextlib, io, json
with contextlib.redirect_stdout(io.StringIO()):
    code = halin.cli.main(sys.argv[1:])
ran = {m for m in set(sys.modules) - before - loaded if m.startswith("halin")}
print(json.dumps({"loaded": sorted(loaded), "ran": sorted(ran), "code": code,
                  "typing": "typing" in sys.modules}))
"""

COMMANDS = {
    "recognize": (["recognize", "--in", "g.json"], []),
    "generate": (["generate", "--variant", "halin", "--n", "12"], ["halin.generators"]),
    "color": (["color", "--in", "g.json"], ["halin.coloring"]),
    "peo": (["peo", "--in", "g.json"], ["halin.peo"]),
    "verify-chordal": (["verify", "--in", "g.json", "--mode", "chordal"], ["halin.peo"]),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_imports_only_what_it_runs(tmp_path, command):
    argv, added = COMMANDS[command]
    save_graph(str(tmp_path / "g.json"), *generate(GenSpec(12, "halin", 2)))
    seen = _child(IMPORTS_CHILD, *argv, cwd=tmp_path)
    assert seen["code"] == (1 if command == "verify-chordal" else 0)
    assert "dataclasses" not in seen["loaded"]
    assert "inspect" not in seen["loaded"]
    assert not seen["typing"]
    assert {m for m in seen["loaded"] if m.startswith("halin")} == {
        "halin", "halin.cli", "halin.graph", "halin.io", "halin.recognition",
    }
    assert seen["ran"] == added


ALL = [
    "ColoringTrace", "GenSpec", "Graph", "GraphFormatError", "HalinCertificate",
    "MalformedCertificateError", "RecognitionResult", "certificate_from_outer",
    "chordal_completion", "color_halin", "dumps_graph", "generate", "load_graph",
    "make_necklace", "make_wheel", "peo_halin", "recognize", "save_graph", "verify_halin",
    "verify_peo",
]
# Names halin does not export: C1-C4 and FanRun live in halin.coloring,
# PeoResult and TraceStep in halin.peo, _is_even_wheel is private to
# halin.coloring, and the width is halin.peo._peo_width.
REMOVED = [
    "C1", "C2", "C3", "C4", "FanRun", "PeoResult", "TraceStep", "is_even_wheel",
    "treewidth_from_peo",
]

SURFACE_CHILD = """
import json, sys
import halin
facts = {"peo": halin.peo.verify_peo.__module__, "missing": []}
facts["types"] = [halin.peo.PeoResult.__module__, halin.peo.TraceStep.__module__]
for name in ["nope", *sys.argv[1:]]:
    try:
        getattr(halin, name)
    except AttributeError as exc:
        facts["missing"].append(str(exc))
facts["all"] = halin.__all__
facts["dir"] = dir(halin)
star = {}
exec("from halin import *", star)
del star["__builtins__"]
facts["star"] = sorted(n for n in star if star[n] is getattr(halin, n))
print(json.dumps(facts))
"""


def test_public_names_resolve_on_first_use(tmp_path):
    facts = _child(SURFACE_CHILD, *REMOVED, cwd=tmp_path)
    assert facts["peo"] == "halin.peo"
    assert facts["types"] == ["halin.peo", "halin.peo"]
    assert facts["missing"] == [
        f"module 'halin' has no attribute {name!r}" for name in ["nope", *REMOVED]
    ]
    assert facts["all"] == ALL
    assert set(ALL) <= set(facts["dir"])
    assert not set(REMOVED) & set(facts["dir"])
    assert facts["star"] == ALL


# Each exported function with a ``cert`` parameter.
CERT_TAKERS = [
    name for name in halin.__all__
    if inspect.isfunction(getattr(halin, name))
    and "cert" in inspect.signature(getattr(halin, name)).parameters
]


@pytest.mark.parametrize("name", CERT_TAKERS)
def test_every_export_that_takes_a_certificate_checks_it(name):
    # A forged certificate: every vertex but one on the "cycle", no tree.
    g, _ = generate(GenSpec(10, "halin", 1))
    forged = HalinCertificate(frozenset(range(9)), tuple(range(9)), {}, 9)
    with pytest.raises(MalformedCertificateError):
        getattr(halin, name)(g, forged)


def test_the_certificate_check_covers_coloring_and_elimination():
    assert CERT_TAKERS == ["color_halin", "peo_halin"]


def _wheel_result():
    g, _ = make_wheel(5)
    return g, recognize(g)


def _wheel_peo():
    g, result = _wheel_result()
    return peo_halin(g, result.certificate)


def _case_4_trace():
    g, _ = generate(GenSpec(11, "halin", 9))
    trace = ColoringTrace()
    color_halin(g, recognize(g).certificate, trace)
    return trace


WHEEL_CERT = (
    "HalinCertificate(outer=frozenset({0, 1, 2, 3}), cycle_order=(0, 1, 2, 3), "
    "parent={0: 4, 1: 4, 2: 4, 3: 4}, root=4)"
)
ODD_RUN = "FanRun(center=1, run=(4, 5, 6), is_fan=True)"
# name -> (build one, its repr, a field, whether assigning it raises, the
# tuple it hashes like, or None if it is unhashable). HalinCertificate has
# its own test in test_check_once.py.
RECORDS = {
    "GenSpec": (
        lambda: GenSpec(12, "necklace", 3), "GenSpec(n=12, variant='necklace', seed=3)",
        "seed", True, (12, "necklace", 3),
    ),
    "FanRun": (lambda: _case_4_trace().odd_run, ODD_RUN, "center", True, (1, (4, 5, 6), True)),
    "ColoringTrace": (
        _case_4_trace, f"ColoringTrace(case=4, odd_run={ODD_RUN})", "case", False, None,
    ),
    "RecognitionResult": (
        lambda: _wheel_result()[1], f"RecognitionResult(certificate={WHEEL_CERT}, reason=None)",
        "reason", True, None,
    ),
    "PeoResult": (
        _wheel_peo,
        "PeoResult(order=[1, 0, 2, 3, 4], fill_edges=[(0, 2)], "
        "trace=[TraceStep(rule='R1', eliminated=1, clique=(0, 1, 2, 4))])",
        "order", False, None,
    ),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_results_compare_print_and_copy_by_value(name):
    build, text, field, frozen, hashes_like = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == text
    for clone in (
        build(), pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record),
    ):
        assert type(clone) is type(record)
        assert clone == record and clone is not record
        assert repr(clone) == text
    if hashes_like is None:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(build()) == hash(hashes_like)
    other = copy.deepcopy(record)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    else:
        setattr(other, field, None)
        assert other != record and getattr(other, field) is None
