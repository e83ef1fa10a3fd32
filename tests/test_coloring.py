import random
from collections import Counter

import pytest

from halin import (
    C1,
    C2,
    C3,
    C4,
    ColoringTrace,
    FanRun,
    GenSpec,
    Graph,
    MalformedCertificateError,
    certificate_from_outer,
    color_halin,
    generate,
    is_even_wheel,
    make_halin,
    make_necklace,
    make_wheel,
)
from halin.coloring import _check_proper, _color_tree, _odd_run
from halin.recognition import HalinCertificate, check_certificate


def _proper(g, colors):
    return all(colors[u] != colors[v] for u, v in g.edges())


def _cert(g, outer):
    return certificate_from_outer(g, outer)


def test_color_tree_wheel():
    g, rim = make_wheel(6)
    colors = _color_tree(_cert(g, rim))
    assert colors[5] == C1
    assert all(colors[v] == C2 for v in rim)


def test_color_tree_alternates_by_depth():
    g, outer = make_necklace(4)  # spine 0-1-2-3 rooted at 0
    colors = _color_tree(_cert(g, outer))
    assert colors[0] == C1 and colors[1] == C2
    assert colors[2] == C1 and colors[3] == C2


@pytest.mark.parametrize("seed", range(8))
def test_color_tree_proper_on_tree_edges(seed):
    g, outer = make_halin(GenSpec(30 + seed, seed=seed))
    cert = _cert(g, outer)
    colors = _color_tree(cert)
    for child, parent in cert.parent.items():
        assert colors[child] != colors[parent]


@pytest.mark.parametrize("seed", range(4))
def test_color_tree_any_parent_order(seed):
    # A parent map listing children before their parents colors the same.
    g, outer = make_halin(GenSpec(40 + seed, seed=seed))
    cert = _cert(g, outer)
    items = list(cert.parent.items())
    random.Random(seed).shuffle(items)
    for parent in (dict(items), dict(reversed(cert.parent.items()))):
        shuffled = HalinCertificate(cert.outer, cert.cycle_order, parent, cert.root)
        assert color_halin(g, shuffled) == color_halin(g, cert)


def test_parent_cycle_is_malformed():
    # Every parent pair and cycle pair is an edge and there are no others,
    # but 4 -> 5 -> 6 -> 4 never reaches the root, so the non-cycle edges
    # are no spanning tree.
    parent = {1: 0, 2: 0, 3: 0, 7: 4, 8: 5, 9: 6, 4: 5, 5: 6, 6: 4}
    cyc = (1, 2, 3, 7, 8, 9)
    g = Graph.from_edges(10, [*parent.items(), *zip(cyc, cyc[1:] + cyc[:1])])
    cert = HalinCertificate(frozenset(cyc), cyc, parent, 0)
    with pytest.raises(MalformedCertificateError):
        check_certificate(g, cert)
    with pytest.raises(MalformedCertificateError):
        color_halin(g, cert)


def test_is_even_wheel():
    g, outer = make_wheel(4)
    assert is_even_wheel(g, _cert(g, outer))
    g, outer = make_wheel(5)
    assert not is_even_wheel(g, _cert(g, outer))
    g, outer = make_necklace(2)
    assert not is_even_wheel(g, _cert(g, outer))


def test_find_odd_run_prefers_true_fan(odd_fan_graph):
    g, outer = odd_fan_graph
    run = _odd_run(g, _cert(g, outer))
    assert run.is_fan
    assert len(run.run) == 3
    assert run.center == 1


def test_find_odd_run_falls_back_to_pseudo_fan(pseudo_fan_graph):
    g, outer = pseudo_fan_graph
    cert = _cert(g, outer)
    # A center's leaf children are consecutive on the cycle, so its leaf
    # count is its run length: every true fan's run is even.
    leaves = Counter(cert.parent[w] for w in cert.cycle_order)
    assert all(k % 2 == 0 for c, k in leaves.items() if g.degree(c) - k == 1)
    run = _odd_run(g, cert)
    assert not run.is_fan
    assert len(run.run) == 1
    assert run.center == 0


def test_w5_three_colors():
    g, outer = make_wheel(5)
    trace = ColoringTrace()
    colors = color_halin(g, _cert(g, outer), trace)
    assert trace.case == 1
    assert _proper(g, colors)
    assert set(colors.values()) == {C1, C2, C3}


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_even_wheels_four_colors(n):
    g, outer = make_wheel(n)
    trace = ColoringTrace()
    colors = color_halin(g, _cert(g, outer), trace)
    assert trace.case == 2
    assert _proper(g, colors)
    assert set(colors.values()) == {C1, C2, C3, C4}
    assert colors[n - 1] == C1  # hub keeps the root color


def test_prism_three_colors():
    g, outer = make_necklace(2)
    trace = ColoringTrace()
    colors = color_halin(g, _cert(g, outer), trace)
    assert trace.case == 1
    assert _proper(g, colors)
    assert set(colors.values()) == {C1, C2, C3}


def test_case3_two_tone_odd_cycle(two_tone_odd_cycle):
    g, outer = two_tone_odd_cycle
    trace = ColoringTrace()
    colors = color_halin(g, _cert(g, outer), trace)
    assert trace.case == 3
    assert _proper(g, colors)
    assert set(colors.values()) == {C1, C2, C3}


def test_case4_odd_true_fan(odd_fan_graph):
    g, outer = odd_fan_graph
    trace = ColoringTrace()
    colors = color_halin(g, _cert(g, outer), trace)
    assert trace.case == 4
    assert trace.odd_run.is_fan
    assert len(trace.odd_run.run) == 3
    assert trace.odd_run.center == 1
    assert colors[trace.odd_run.center] == C3
    assert _proper(g, colors)
    assert set(colors.values()) == {C1, C2, C3}


def test_case4_pseudo_fan(pseudo_fan_graph):
    g, outer = pseudo_fan_graph
    trace = ColoringTrace()
    colors = color_halin(g, _cert(g, outer), trace)
    assert trace.case == 4
    assert not trace.odd_run.is_fan
    assert len(trace.odd_run.run) == 1
    assert trace.odd_run.center == 0
    assert _proper(g, colors)
    assert set(colors.values()) == {C1, C2, C3}


def test_case4_first_odd_pseudo_fan(three_pseudo_fans_graph):
    g, outer = three_pseudo_fans_graph
    trace = ColoringTrace()
    colors = color_halin(g, _cert(g, outer), trace)
    assert trace.case == 4
    assert trace.odd_run == FanRun(5, (2,), False)
    assert _proper(g, colors)


def test_root_color_is_stable():
    for seed in range(6):
        g, outer = make_halin(GenSpec(20, seed=seed))
        cert = _cert(g, outer)
        colors = color_halin(g, cert)
        assert colors[cert.root] == C1


@pytest.mark.parametrize("seed", range(25))
def test_random_graphs_proper_and_three_colors(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 400)
    variant = rng.choice(["halin", "halin_cubic"])
    if variant == "halin_cubic" and n % 2:
        n += 1
    g, outer = generate(GenSpec(n, variant, seed=seed))
    cert = _cert(g, outer)
    colors = color_halin(g, cert)
    assert _proper(g, colors)
    expected = 4 if is_even_wheel(g, cert) else 3
    assert len(set(colors.values())) == expected


def test_malformed_certificate_rejected():
    g, outer = make_wheel(6)
    cert = _cert(g, outer)
    bad = HalinCertificate(cert.outer, cert.cycle_order, cert.parent, root=0)
    with pytest.raises(MalformedCertificateError):
        color_halin(g, bad)
    short = HalinCertificate(
        cert.outer, cert.cycle_order, {0: 5, 1: 5}, cert.root
    )
    with pytest.raises(MalformedCertificateError):
        color_halin(g, short)


def test_improper_coloring_names_the_edge():
    # _check_proper sees only the certificate's edges, which the check of
    # the certificate proved to be all of the graph's edges.
    g, outer = make_wheel(7)
    cert = _cert(g, outer)
    colors = color_halin(g, cert)
    _check_proper(cert, colors)
    u, v = cert.cycle_order[:2]
    with pytest.raises(MalformedCertificateError, match=rf"edge \({u}, {v}\) has color {colors[v]}"):
        _check_proper(cert, colors | {u: colors[v]})
    hub = cert.root
    leaf = cert.cycle_order[3]
    with pytest.raises(MalformedCertificateError, match=rf"edge \({leaf}, {hub}\) has color {colors[hub]}"):
        _check_proper(cert, colors | {leaf: colors[hub]})
