"""Outputs pinned across rewrites of the core, and the one-pass certifier
checked against the step-by-step certificate builder."""

import hashlib
import json
import random

import pytest

from halin import (
    ColoringTrace,
    GenSpec,
    Graph,
    color_halin,
    generate,
    peo_halin,
    recognize,
    verify_halin,
)
from halin.recognition import certify
from reference import reference_certificate

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
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabelled = Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
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
