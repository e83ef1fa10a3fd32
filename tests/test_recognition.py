import itertools
import random

import pytest

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
from halin.oracles import is_halin_bruteforce
from halin.recognition import (
    REASON_DISCONNECTED,
    REASON_LOW_DEGREE,
    REASON_STUCK,
    HalinCertificate,
    certify,
    check_certificate,
)
from reference import inner_tree, outer_cycle_order


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


def test_rejects_k5():
    k5 = Graph.from_edges(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    assert not recognize(k5).is_halin


def test_rejects_tiny_graphs():
    assert not recognize(Graph(0)).is_halin
    assert not recognize(Graph(1)).is_halin
    assert not recognize(Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])).is_halin


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
    g, rim = make_wheel(4)  # hub 3
    g.remove_edge(3, 0)
    w = g.add_vertex()
    g.add_edge(3, w)
    g.add_edge(w, 0)
    assert not verify_halin(g, rim)


def test_verify_rejects_non_cycle_outer():
    g, rim = make_wheel(6)
    assert not verify_halin(g, rim - {0})
    assert not verify_halin(g, {0, 1, 5})


def test_verify_rejects_contiguity_violation():
    # Valid tree and leaf cycle, but the cycle order interleaves the two
    # fans, which no planar embedding can realize.
    g = Graph(8)
    for parent, kid in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (0, 7)]:
        g.add_edge(parent, kid)
    for u, v in [(3, 5), (5, 4), (4, 6), (6, 7), (7, 3)]:
        g.add_edge(u, v)
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


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


@pytest.mark.parametrize("seed", range(20))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 120)
    variant = rng.choice(["halin", "halin_cubic"])
    if variant == "halin_cubic" and n % 2:
        n += 1
    g, outer = generate(GenSpec(n, variant, seed=seed))
    # Generator ids follow tree order; a random labelling does not.
    for graph in (g, _relabel(g, rng)):
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
        g = _relabel(generate(GenSpec(n, variant, seed=seed))[0], rng)
        if seed % 2:
            u, v = rng.sample(range(g.n), 2)
            if g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v)
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
    g.remove_edge(order[i], order[(i + 1) % len(order)])
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
    on each. CI also runs n = 7: (2940, 236926), in about 13 s."""
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
    isolated = g.copy()
    isolated.add_vertex()
    assert recognize(isolated).reason == REASON_DISCONNECTED
    assert recognize(_disjoint_union(g, h)).reason == REASON_DISCONNECTED
    pendant = g.copy()
    pendant.add_edge(0, pendant.add_vertex())
    assert recognize(pendant).reason == REASON_LOW_DEGREE
