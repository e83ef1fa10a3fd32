import random
from itertools import combinations, permutations

import pytest

from halin import (
    GenSpec,
    Graph,
    MalformedCertificateError,
    PeoResult,
    certificate_from_outer,
    chordal_completion,
    color_halin,
    generate,
    is_chordal_bruteforce,
    make_halin,
    make_wheel,
    peo_halin,
    replay_trace,
    treewidth_from_peo,
    verify_peo,
)
from halin.recognition import HalinCertificate


def _run(g, outer):
    return peo_halin(g, certificate_from_outer(g, outer))


def test_k4_no_fills():
    g, outer = make_wheel(4)
    result = _run(g, outer)
    assert result.order == [0, 1, 2, 3]
    assert result.fill_edges == set()
    assert result.trace == []


def test_w5_single_r1():
    # Rim 0..3, hub 4. The first triple from the cursor is (0, 1, 2), so
    # vertex 1 is eliminated with fill 0-2 and the K4 residue follows.
    g, outer = make_wheel(5)
    result = _run(g, outer)
    assert result.order == [1, 0, 2, 3, 4]
    assert result.fill_edges == {(0, 2)}
    assert len(result.trace) == 1
    assert result.trace[0].rule == "R1"
    assert result.trace[0].eliminated == 1


def test_w5_completion_is_chordal():
    g, outer = make_wheel(5)
    result = _run(g, outer)
    comp = chordal_completion(g, result)
    assert comp.num_edges() == g.num_edges() + 1
    assert comp.has_edge(0, 2)
    assert is_chordal_bruteforce(comp)
    assert verify_peo(comp, result.order)
    assert treewidth_from_peo(comp, result.order) == 3


def test_verify_peo_complete_graph_any_order():
    g, _ = make_wheel(4)
    for order in permutations(range(4)):
        assert verify_peo(g, list(order))


def test_verify_peo_chordless_cycle_never():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for order in permutations(range(4)):
        assert not verify_peo(c4, list(order))


def test_verify_peo_rejects_non_permutation():
    g, _ = make_wheel(4)
    with pytest.raises(ValueError):
        verify_peo(g, [0, 1, 2])
    with pytest.raises(ValueError):
        verify_peo(g, [0, 1, 2, 2])


def test_treewidth_requires_valid_peo():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError):
        treewidth_from_peo(c4, [0, 1, 2, 3])


@pytest.mark.parametrize("seed", range(20))
def test_random_graphs_full_pipeline(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 250)
    variant = rng.choice(["halin", "halin_cubic"])
    if variant == "halin_cubic" and n % 2:
        n += 1
    g, outer = generate(GenSpec(n, variant, seed=seed))
    result = _run(g, outer)
    assert sorted(result.order) == sorted(g.vertices())
    comp = chordal_completion(g, result)
    assert verify_peo(comp, result.order)
    assert treewidth_from_peo(comp, result.order) == 3
    # original edges survive; fills are new
    assert all(comp.has_edge(u, v) for u, v in g.edges())
    assert all(not g.has_edge(u, v) for u, v in result.fill_edges)
    # the K4 residue really is complete in the filled graph
    tail = result.order[-4:]
    assert all(
        comp.has_edge(a, b) for i, a in enumerate(tail) for b in tail[i + 1 :]
    )


@pytest.mark.parametrize("seed", range(10))
def test_trace_replay_reproduces_result(seed):
    g, outer = make_halin(GenSpec(10 + 13 * seed, seed=seed))
    result = _run(g, outer)
    order, fills = replay_trace(g, result.trace)
    assert order == result.order
    assert fills == result.fill_edges


@pytest.mark.parametrize("n", range(4, 13))
def test_small_completions_chordal(n):
    for seed in range(5):
        g, outer = make_halin(GenSpec(n, seed=seed))
        result = _run(g, outer)
        assert is_chordal_bruteforce(chordal_completion(g, result))


def test_elimination_cliques_cap_at_four():
    g, outer = make_halin(GenSpec(120, seed=3))
    result = _run(g, outer)
    comp = chordal_completion(g, result)
    pos = {v: i for i, v in enumerate(result.order)}
    for v in result.order:
        later = [w for w in comp.neighbors(v) if pos[w] > pos[v]]
        assert len(later) <= 3


def test_malformed_certificate_rejected():
    g, outer = make_wheel(6)
    cert = certificate_from_outer(g, outer)
    truncated = HalinCertificate(cert.outer, cert.cycle_order, {0: 5}, cert.root)
    with pytest.raises(MalformedCertificateError):
        peo_halin(g, truncated)


def test_peo_does_not_mutate_input():
    g, outer = make_halin(GenSpec(30, seed=9))
    before = sorted(g.edges())
    _run(g, outer)
    assert sorted(g.edges()) == before


def test_swapped_cycle_entries_rejected():
    # Two swapped entries of a cycle of length >= 5 always put a non-edge
    # between consecutive entries. Unchecked, some of these certificates
    # gave a PEO that verify_peo rejects, and some an improper coloring.
    rng = random.Random(0)
    for variant in ("halin", "halin_cubic"):
        for n in (10, 20, 40):
            for seed in range(50):
                g, outer = generate(GenSpec(n, variant, seed=seed))
                cert = certificate_from_outer(g, outer)
                cyc = list(cert.cycle_order)
                i, j = rng.sample(range(len(cyc)), 2)
                cyc[i], cyc[j] = cyc[j], cyc[i]
                bad = HalinCertificate(cert.outer, tuple(cyc), cert.parent, cert.root)
                with pytest.raises(MalformedCertificateError):
                    peo_halin(g, bad)
                with pytest.raises(MalformedCertificateError):
                    color_halin(g, bad)


def test_certificate_must_cover_every_edge():
    g, outer = make_halin(GenSpec(20, seed=4))
    cert = certificate_from_outer(g, outer)
    inner = sorted(set(g.vertices()) - outer)
    extra = next(
        (a, b) for a in inner for b in sorted(outer) if not g.has_edge(a, b)
    )
    g.add_edge(*extra)
    with pytest.raises(MalformedCertificateError):
        peo_halin(g, cert)


@pytest.mark.parametrize(
    "fill",
    [(0, 99), (1, 1), (1.0, 3), (1, 3.0), ("a", 3), (1, "a"), (None, 3), (1, None)],
    ids=["out-of-range", "self-loop", "float", "float-second", "str", "str-second", "none", "none-second"],
)
def test_completion_rejects_bad_fill(fill):
    g, _ = make_wheel(6)
    with pytest.raises(ValueError):
        chordal_completion(g, PeoResult([], {fill}, []))


def test_completion_bool_fill_is_its_int():
    g, _ = make_wheel(6)
    comp = chordal_completion(g, PeoResult([], {(True, 3)}, []))
    assert comp.has_edge(1, 3)


def _verify_peo_pairwise(filled, order):
    """Reference: every vertex's later neighbors, tested pair by pair."""
    vs = set(filled.vertices())
    if len(order) != len(vs) or set(order) != vs:
        raise ValueError("order is not a permutation of the vertex set")
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = [w for w in filled.neighbors(v) if pos[w] > i]
        for a, b in combinations(later, 2):
            if not filled.has_edge(a, b):
                return False
    return True


def test_verify_peo_matches_pairwise_reference():
    rng = random.Random(3)
    seen = {True: 0, False: 0, ValueError: 0}
    for variant, sizes in (
        ("halin", (4, 7, 12, 25)),
        ("halin_cubic", (4, 8, 12, 26)),
        ("necklace", (6, 8, 12, 26)),
        ("wheel", (4, 7, 12, 25)),
    ):
        for n in sizes:
            g, outer = generate(GenSpec(n, variant, seed=n))
            result = _run(g, outer)
            comp = chordal_completion(g, result)
            orders = [result.order]
            for _ in range(6):
                swapped = list(result.order)
                i, j = rng.sample(range(len(swapped)), 2)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                orders.append(swapped)
                orders.append(rng.sample(result.order, len(result.order)))
            for graph in (g, comp):
                for order in orders:
                    expected = _verify_peo_pairwise(graph, order)
                    assert verify_peo(graph, order) == expected
                    seen[expected] += 1
                for bad in (order[:-1], order + order[:1], order[:-1] + order[:1]):
                    with pytest.raises(ValueError):
                        _verify_peo_pairwise(graph, bad)
                    with pytest.raises(ValueError):
                        verify_peo(graph, bad)
                    seen[ValueError] += 1
    assert min(seen.values()) > 10, seen
