import itertools
import random

import pytest

import halin.recognition as recognition
from halin import (
    GenSpec,
    Graph,
    MalformedCertificateError,
    certificate_from_outer,
    generate,
    make_halin,
    make_necklace,
    make_wheel,
    recognize,
    verify_halin,
)
from halin.generators import VARIANTS
from halin.recognition import (
    REASON_DISCONNECTED,
    REASON_LOW_DEGREE,
    REASON_STUCK,
    HalinCertificate,
    certify,
    check_certificate,
)
from reference import (
    halin_graphs,
    halin_outer_sets,
    inner_tree,
    is_halin_bruteforce,
    outer_cycle_order,
    reference_certificate,
    reference_rims,
    relabel,
)


def test_accepts_k4():
    g, _ = make_wheel(4)
    result = recognize(g)
    assert result.is_halin
    assert verify_halin(g, set(result.certificate.outer))
    assert len(result.certificate.outer) == 3


def test_accepts_w6_with_rim_outer():
    g, rim = make_wheel(6)
    result = recognize(g)
    assert result.is_halin
    assert set(result.certificate.outer) == rim


def test_rejects_cycle():
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    result = recognize(c5)
    assert not result.is_halin
    assert result.reason == REASON_LOW_DEGREE


def test_rejects_disconnected():
    g = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (6, 7)])
    result = recognize(g)
    assert result.reason == REASON_DISCONNECTED


def test_rejects_triangle_free_cubic():
    # The cube graph is 3-regular and 3-connected but has no triangles,
    # so no reduction rule can start anywhere.
    cube = Graph.from_edges(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
         (0, 4), (1, 5), (2, 6), (3, 7)],
    )
    result = recognize(cube)
    assert not result.is_halin
    assert result.reason == REASON_STUCK


def test_triangle_with_shared_outside_neighbour_is_skipped():
    # x, y, v = 0, 1, 2 (and other triangles here) are mutually adjacent
    # degree-3 vertices whose outside neighbours are not distinct, which
    # the triangle rule must skip.
    g = Graph.from_edges(
        8,
        [(0, 1), (0, 2), (1, 2), (0, 3), (2, 3), (1, 4), (3, 5), (4, 5), (4, 6), (5, 6),
         (6, 7), (7, 3), (7, 5)],
    )
    result = recognize(g)
    assert result.is_halin == is_halin_bruteforce(g)
    assert result.reason == REASON_STUCK


def test_rejects_k5():
    k5 = Graph.from_edges(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    assert not recognize(k5).is_halin


def test_rejects_tiny_graphs():
    for g, reason in [
        (Graph(0), REASON_STUCK),
        (Graph(1), REASON_LOW_DEGREE),
        (Graph(2), REASON_DISCONNECTED),
        (Graph.from_edges(2, [(0, 1)]), REASON_LOW_DEGREE),
        (Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)]), REASON_LOW_DEGREE),
        (Graph(4), REASON_DISCONNECTED),
    ]:
        result = recognize(g)
        assert not result.is_halin
        assert result.reason == reason, g
    # certify needs no size guard: fewer than three outer vertices fail
    # its outer-degree test or its first-walk-step test.
    g, _ = make_wheel(7)
    for k in range(3):
        for outer in itertools.combinations(range(g.n), k):
            assert certify(g, set(outer)) is None


# verify_halin


def test_verify_wheel_rim():
    g, rim = make_wheel(6)
    assert verify_halin(g, rim)


def test_verify_rejects_hub_swap():
    g, rim = make_wheel(6)
    bad = (rim - {2}) | {5}
    assert not verify_halin(g, bad)


def test_verify_rejects_degree2_inner_node():
    # K4 with one tree edge subdivided: the new inner vertex has
    # tree-degree 2.
    g, rim = make_wheel(4)  # hub 3, subdivided by vertex 4
    g = Graph.from_edges(5, [e for e in g.edges() if e != (0, 3)] + [(3, 4), (4, 0)])
    assert not verify_halin(g, rim)


def test_verify_rejects_non_cycle_outer():
    g, rim = make_wheel(6)
    assert not verify_halin(g, rim - {0})
    assert not verify_halin(g, {0, 1, 5})


def test_verify_rejects_contiguity_violation():
    # Valid tree and leaf cycle, but the cycle order interleaves the two
    # fans, which no planar embedding can realize.
    g = Graph.from_edges(8, [
        (0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (0, 7),  # the tree
        (3, 5), (5, 4), (4, 6), (6, 7), (7, 3),  # the cycle
    ])
    assert not verify_halin(g, {3, 4, 5, 6, 7})


# the step-by-step reference builders


def test_inner_tree_wheel():
    g, rim = make_wheel(6)
    parent, root = inner_tree(g, rim)
    assert root == 5
    assert parent == {v: 5 for v in rim}


def test_inner_tree_prism_decomposition():
    g, outer = make_necklace(2)
    parent, root = inner_tree(g, outer)
    assert len(parent) == 5
    # two inner vertices joined by the spine edge; every leaf hangs off one
    inner = {v for v in g.vertices() if v not in outer}
    assert root in inner
    spine_children = [v for v in inner if v != root]
    assert len(spine_children) == 1
    assert parent[spine_children[0]] == root


def test_inner_tree_parent_count():
    g, outer = make_halin(GenSpec(10, seed=7))
    parent, _ = inner_tree(g, outer)
    assert len(parent) == 9


def test_inner_tree_rejects_garbage():
    g, _ = make_wheel(6)
    with pytest.raises(MalformedCertificateError):
        inner_tree(g, set(g.vertices()))


def test_outer_cycle_order_is_deterministic_cycle():
    g, rim = make_wheel(6)
    order = outer_cycle_order(g, rim)
    assert order[0] == 0
    assert set(order) == rim
    for i, v in enumerate(order):
        assert g.has_edge(v, order[(i + 1) % len(order)])
    with pytest.raises(ValueError):
        outer_cycle_order(g, {0, 1})


# round trips and mutations


@pytest.mark.parametrize("seed", range(20))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 120)
    variant = rng.choice(["halin", "halin_cubic"])
    if variant == "halin_cubic" and n % 2:
        n += 1
    g, outer = generate(GenSpec(n, variant, seed=seed))
    # Generator ids follow tree order; a random labelling does not.
    for graph in (g, relabel(g, rng)[0]):
        result = recognize(graph)
        assert result.is_halin
        assert verify_halin(graph, set(result.certificate.outer))


def test_recognize_agrees_with_bruteforce():
    # Leaves 0 and 6 and their centre 3 form a triangle of degree-3
    # vertices; which of the three is the centre shows only on the rim.
    g = Graph.from_edges(
        7, [(0, 1), (0, 3), (0, 6), (1, 2), (1, 4), (2, 4), (2, 5), (3, 4), (3, 6), (4, 5), (5, 6)]
    )
    assert verify_halin(g, {0, 1, 2, 5, 6}) and recognize(g).is_halin
    rng = random.Random(3)
    halin = 0
    for seed in range(2000):
        variant = rng.choice(VARIANTS)
        n = rng.randint(6 if variant == "necklace" else 4, 11)
        if variant in ("halin_cubic", "necklace") and n % 2:
            n -= 1
        g, _ = relabel(generate(GenSpec(n, variant, seed=seed))[0], rng)
        if seed % 2:  # toggle one vertex pair
            u, v = rng.sample(range(g.n), 2)
            toggled = {(min(u, v), max(u, v))}
            g = Graph.from_edges(g.n, set(g.edges()) ^ toggled)
        expected = is_halin_bruteforce(g)
        assert recognize(g).is_halin == expected, sorted(g.edges())
        halin += expected
    assert halin >= 1000  # every unmutated graph


@pytest.mark.parametrize("seed", range(12))
def test_cycle_edge_deletion_rejected(seed):
    rng = random.Random(seed)
    g, outer = make_halin(GenSpec(rng.randint(5, 80), seed=seed))
    order = certify(g, outer).cycle_order
    i = rng.randrange(len(order))
    cut = {order[i], order[(i + 1) % len(order)]}
    g = Graph.from_edges(g.n, [e for e in g.edges() if set(e) != cut])
    assert not recognize(g).is_halin


def test_outer_matches_generator_for_unique_decompositions():
    # K4 has four outer cycles and the prism three; larger wheels have one
    # and larger necklaces two. Reducing smallest id first, recognize
    # returns the generator's outer set on the generator's labelling.
    for n in range(5, 30):
        g, rim = make_wheel(n)
        assert set(recognize(g).certificate.outer) == rim
    for k in range(3, 12):
        g, outer = make_necklace(k)
        assert set(recognize(g).certificate.outer) == outer


def test_certificate_from_outer_fields():
    g, outer = make_halin(GenSpec(15, seed=2))
    cert = certificate_from_outer(g, outer)
    assert set(cert.outer) == outer
    assert set(cert.cycle_order) == outer
    assert cert.root not in outer
    assert len(cert.parent) == g.n - 1
    # parent edges are graph edges and avoid the cycle
    for child, parent in cert.parent.items():
        assert g.has_edge(child, parent)
        assert not (child in outer and parent in outer)


def test_recognize_does_not_mutate_input():
    g, _ = make_halin(GenSpec(25, seed=4))
    edges_before = sorted(g.edges())
    recognize(g)
    assert sorted(g.edges()) == edges_before


def test_check_certificate_rejects_each_broken_condition():
    g, outer = make_halin(GenSpec(30, seed=3))
    cert = certificate_from_outer(g, outer)
    check_certificate(g, cert)
    parent = cert.parent
    cyc = cert.cycle_order
    # An inner vertex v below a non-root parent, with an outer child w.
    v, w = next(
        (p, c) for c, p in sorted(parent.items())
        if c in outer and p != cert.root and parent[p] != cert.root
    )
    out_of_range = {u: p for u, p in parent.items() if u != w}
    out_of_range[10**6] = parent[w]
    broken = [
        ("root", cyc, parent, w),  # an outer root
        ("cycle_order", cyc[:2], parent, cert.root),  # too short
        ("cycle_order", cyc[:-1] + (cert.root,), parent, cert.root),  # not a permutation
        ("parent", cyc, out_of_range, cert.root),
        ("cycle_order", (cyc[1], cyc[0]) + cyc[2:], parent, cert.root),  # a non-edge pair
        ("parent", cyc, {**parent, v: w}, cert.root),  # outer parent
        ("parent", cyc, {**parent, parent[v]: v}, cert.root),  # two-cycle
    ]
    for message, order, par, root in broken:
        with pytest.raises(MalformedCertificateError, match=message):
            check_certificate(g, HalinCertificate(cert.outer, order, par, root))


def test_near_misses_agree_with_the_reference_check():
    # Swapping two leaves 1-3 apart on the cycle of a generator graph
    # keeps (a)-(d) and breaks (e) unless both subtrees still form arcs.
    rng = random.Random(21)
    verdicts = []
    for seed in range(300):
        variant = VARIANTS[seed % 4]
        n = rng.randint(12, 1000 if seed % 10 == 0 else 100)
        if variant in ("halin_cubic", "necklace"):
            n += n % 2
        g, outer = generate(GenSpec(n, variant, seed=seed))
        cert = reference_certificate(g, outer)
        tree = list(cert.parent.items())
        for _ in range(4):
            order = list(cert.cycle_order)
            i = rng.randrange(len(order))
            j = (i + rng.randint(1, 3)) % len(order)
            order[i], order[j] = order[j], order[i]
            cycle = zip(order, order[1:] + order[:1])
            h, perm = relabel(Graph.from_edges(g.n, [*tree, *cycle]), rng)
            h_outer = {perm[v] for v in outer}
            try:
                reference_certificate(h, h_outer)
            except ValueError:
                expected = False
            else:
                expected = True
            assert (certify(h, h_outer) is not None) == expected, (variant, n, seed)
            assert recognize(h).is_halin == expected, (variant, n, seed)
            verdicts.append(expected)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_recognize_is_equivariant_under_relabelling():
    # Every outer set recognize returns passes the reference check. Under
    # a relabelling pi, the outer set of pi(g) is pi of the one of g,
    # unless g has two or more Halin decompositions (all of them cubic).
    rng = random.Random(21)
    for g, _ in halin_graphs(8):
        h, perm = relabel(g, rng)
        g_outer = recognize(g).certificate.outer
        h_outer = recognize(h).certificate.outer
        reference_certificate(g, g_outer)
        reference_certificate(h, h_outer)
        if h_outer != {perm[v] for v in g_outer}:
            assert len(list(halin_outer_sets(g))) > 1, sorted(g.edges())


# every candidate rim against the reference


def _check_rims(graphs):
    """(graphs, rims): recognize runs on each of ``graphs`` with
    ``_rims`` recorded. Every recorded call must yield exactly the
    ``reference_rims`` of its size, in hub order, and each reference rim
    r must be among the rims it yields for size len(r); rims counts the
    reference rims."""
    rims = recognition._rims
    calls = []

    def recorded(*args):
        calls.append(args)
        return rims(*args)

    checked = found = 0
    recognition._rims = recorded
    try:
        for g in graphs:
            recognize(g)
            checked += 1
            for hubs, trace, n, size in calls:
                expected = reference_rims(n, trace, hubs)
                got = list(rims(hubs, trace, n, size))
                assert got == [r for r in expected if len(r) == size], sorted(g.edges())
                for r in expected:
                    assert r in rims(hubs, trace, n, len(r)), sorted(g.edges())
                found += len(expected)
            calls.clear()
    finally:
        recognition._rims = rims
    return checked, found


def rim_agreement(leaves):
    """``_check_rims`` over every Halin graph with 3 to ``leaves`` leaves,
    as built and under one relabelling each. CI also runs 10 leaves:
    (103048, 412150), in about 20 s."""
    rng = random.Random(27)
    return _check_rims(h for g, _ in halin_graphs(leaves) for h in (g, relabel(g, rng)[0]))


def test_every_candidate_rim_agrees_with_the_reference():
    assert rim_agreement(8) == (4278, 17082)
    rng = random.Random(12)
    generated = [
        generate(GenSpec(n, variant, seed=n))[0] for variant in VARIANTS for n in (12, 50, 256, 2000)
    ]
    assert _check_rims(h for g in generated for h in (g, relabel(g, rng)[0])) == (32, 104)


# exhaustive agreement at small n, and the order of the rejection reasons


def _min_degree_3_graphs(n):
    """Every labelled graph on n vertices with minimum degree >= 3."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
        deg = [0] * n
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        if min(deg) >= 3:
            yield Graph.from_edges(n, edges)


def exhaustive_agreement(n):
    """(Halin, checked) over every labelled graph on n vertices with
    minimum degree >= 3, asserting that recognize agrees with the oracle
    on each. CI also runs n = 7: (2940, 236926), in about 18 s."""
    halin = checked = 0
    for g in _min_degree_3_graphs(n):
        accepted = recognize(g).is_halin
        assert accepted == is_halin_bruteforce(g), sorted(g.edges())
        halin += accepted
        checked += 1
    return halin, checked


def test_recognize_agrees_with_bruteforce_on_every_small_graph():
    counts = {n: exhaustive_agreement(n) for n in range(4, 7)}
    # (Halin, checked) per n. The labelled Halin graphs are K4; the 15
    # wheels on 5 vertices; on 6, the 72 wheels and the 60 prisms.
    assert counts == {4: (1, 1), 5: (15, 26), 6: (132, 1858)}


def enumerated_certificates(leaves):
    """The count of Halin graphs per leaf count from 3 to ``leaves``,
    asserting on each graph with exactly ``leaves`` leaves that certify
    builds the reference certificate of its outer set and that recognize
    accepts it. CI also runs 10 leaves: [1, 4, 17, 76, 353, 1688, 8257,
    41128], in about 9 s."""
    counts = [0] * (leaves + 1)
    for g, outer in halin_graphs(leaves):
        counts[len(outer)] += 1
        if len(outer) == leaves:
            assert certify(g, outer) == reference_certificate(g, outer), sorted(g.edges())
            assert recognize(g).is_halin, sorted(g.edges())
    return counts[3:]


def test_certify_and_recognize_on_every_halin_graph_up_to_8_leaves():
    for leaves in range(3, 8):
        enumerated_certificates(leaves)
    assert enumerated_certificates(8) == [1, 4, 17, 76, 353, 1688]


def _disjoint_union(*graphs):
    out, shift = [], 0
    for g in graphs:
        out += [(u + shift, v + shift) for u, v in g.edges()]
        shift += g.n
    return Graph.from_edges(shift, out)


def test_rejection_reasons_keep_their_order():
    g, _ = generate(GenSpec(20, "halin", seed=4))
    h, _ = generate(GenSpec(12, "halin_cubic", seed=5))
    assert recognize(g).is_halin and recognize(h).is_halin
    isolated = Graph.from_edges(g.n + 1, g.edges())
    assert recognize(isolated).reason == REASON_DISCONNECTED
    assert recognize(_disjoint_union(g, h)).reason == REASON_DISCONNECTED
    pendant = Graph.from_edges(g.n + 1, [*g.edges(), (0, g.n)])
    assert recognize(pendant).reason == REASON_LOW_DEGREE
