"""Call counts on the acceptance path, with no timers: recognize hands
``certify`` only outer sets of the size every Halin outer cycle has,
tests connectivity only on the way to a rejection, and does not reduce
an input with a vertex of degree below 3."""

import random

import pytest

import halin.recognition as recognition
from halin import GenSpec, Graph, generate, make_wheel, recognize
from halin.generators import VARIANTS

SIZES = (8, 13, 32, 97, 256, 500)


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


@pytest.fixture
def calls(monkeypatch):
    """Records (m - n + 1, |outer|) per certify call and counts is_connected calls."""
    seen = {"certify": [], "is_connected": 0}
    certify = recognition.certify
    is_connected = Graph.is_connected

    def counted_certify(g, outer):
        seen["certify"].append((g.num_edges() - g.n + 1, len(outer)))
        return certify(g, outer)

    def counted_is_connected(g):
        seen["is_connected"] += 1
        return is_connected(g)

    monkeypatch.setattr(recognition, "certify", counted_certify)
    monkeypatch.setattr(Graph, "is_connected", counted_is_connected)
    return seen


def test_acceptance_certifies_only_right_sized_rims_and_skips_connectivity(calls):
    rng = random.Random(6)
    accepted = 0
    for variant in VARIANTS:
        for n in SIZES:
            if variant in ("halin_cubic", "necklace") and n % 2:
                n += 1
            g, _ = generate(GenSpec(n, variant, seed=n))
            for h in (g, _relabel(g, rng)):
                assert recognize(h).is_halin
                accepted += 1
    assert accepted == 48
    assert calls["is_connected"] == 0
    assert len(calls["certify"]) >= accepted
    assert all(size == got for size, got in calls["certify"])


def _non_halin():
    """Rejected inputs that reach certify's candidates by both routes:
    a hub joined to all others (no reduction) and a reduced residue."""
    wheel, _ = make_wheel(12)
    wheel.add_edge(0, 5)  # a rim chord: 12 edges of the rim's 11 + 1
    yield wheel
    g, outer = generate(GenSpec(40, "halin", seed=3))
    inner = sorted(set(g.vertices()) - outer)
    g.add_edge(*next((a, b) for a in inner for b in outer if not g.has_edge(a, b)))
    yield g
    yield Graph.from_edges(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])  # K5
    yield Graph.from_edges(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )  # the cube: no triangle, so no rule applies


def test_rejection_certifies_only_right_sized_rims_and_tests_connectivity(calls):
    rejected = 0
    for g in _non_halin():
        assert not recognize(g).is_halin
        rejected += 1
    assert calls["is_connected"] == rejected
    assert all(size == got for size, got in calls["certify"])


def test_low_degree_inputs_skip_the_reduction(monkeypatch):
    # A vertex of degree 2 or 1 rules out Halin, so recognize rejects
    # without reducing; _reduce relies on it, as its rules assume every
    # degree is 3 or more. The first graph has a triangle 0, 1, 2 whose
    # corner 2 has degree 2; the second, a pendant vertex.
    reduce = recognition._reduce
    reduced = []

    def counted_reduce(src):
        reduced.append(len(src))
        return reduce(src)

    monkeypatch.setattr(recognition, "_reduce", counted_reduce)
    corner = Graph.from_edges(
        7, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (3, 4), (3, 5), (4, 5), (5, 6), (3, 6), (4, 6)]
    )
    pendant, _ = generate(GenSpec(20, "halin", seed=4))
    pendant.add_edge(0, pendant.add_vertex())
    for g in (corner, pendant):
        assert recognize(g).reason == recognition.REASON_LOW_DEGREE
    assert reduced == []
    assert recognize(generate(GenSpec(20, "halin", seed=4))[0]).is_halin
    assert reduced == [20]
