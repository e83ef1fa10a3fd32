from itertools import permutations

import pytest

from halin import (
    GenSpec,
    generate,
    make_necklace,
    make_wheel,
    verify_halin,
)
from halin.io import dumps_graph


def test_wheel_4_is_k4():
    g, outer = make_wheel(4)
    assert g.n == 4 and g.num_edges() == 6
    assert outer == {0, 1, 2}
    assert all(g.degree(v) == 3 for v in g.vertices())


def test_wheel_6():
    g, outer = make_wheel(6)
    assert g.num_edges() == 10
    assert g.degree(5) == 5
    assert outer == {0, 1, 2, 3, 4}


def test_wheel_too_small():
    with pytest.raises(ValueError):
        make_wheel(3)


def _isomorphic(g, h):
    if g.n != h.n or g.num_edges() != h.num_edges():
        return False
    ge = set(g.edges())
    hv = sorted(h.vertices())
    for perm in permutations(hv):
        mapping = dict(zip(sorted(g.vertices()), perm))
        if all(h.has_edge(mapping[u], mapping[v]) for u, v in ge):
            return True
    return False


def test_necklace_2_is_the_prism(prism):
    g, outer = make_necklace(2)
    assert g.n == 6 and g.num_edges() == 9
    assert all(g.degree(v) == 3 for v in g.vertices())
    assert _isomorphic(g, prism)


def test_necklace_3():
    g, outer = make_necklace(3)
    assert g.n == 8 and g.num_edges() == 12
    assert all(g.degree(v) == 3 for v in g.vertices())
    assert verify_halin(g, outer)


def test_necklace_too_small():
    with pytest.raises(ValueError):
        make_necklace(1)


def test_halin_n4_is_k4():
    for seed in range(5):
        g, outer = generate(GenSpec(4, seed=seed))
        assert g.num_edges() == 6
        assert len(outer) == 3


def test_halin_n10_seed7_verifies():
    g, outer = generate(GenSpec(10, seed=7))
    assert g.n == 10
    assert verify_halin(g, outer)


def test_halin_determinism():
    a, outer_a = generate(GenSpec(40, seed=23))
    b, outer_b = generate(GenSpec(40, seed=23))
    assert sorted(a.edges()) == sorted(b.edges())
    assert outer_a == outer_b
    assert dumps_graph(a, outer_a) == dumps_graph(b, outer_b)


def test_halin_too_small():
    with pytest.raises(ValueError):
        generate(GenSpec(3))


@pytest.mark.parametrize("n", range(4, 60))
def test_halin_verifies_and_counts_edges(n):
    g, outer = generate(GenSpec(n, seed=n * 31 + 1))
    assert g.n == n
    assert verify_halin(g, outer)
    assert g.num_edges() == (n - 1) + len(outer)
    # inner tree free of degree-2 vertices: inner degree is tree degree
    assert all(g.degree(v) >= 3 for v in g.vertices() if v not in outer)


@pytest.mark.parametrize("n", range(4, 61, 2))
def test_cubic_verifies(n):
    g, outer = generate(GenSpec(n, "halin_cubic", seed=n))
    assert g.n == n
    assert all(g.degree(v) == 3 for v in g.vertices())
    assert g.num_edges() == 3 * n // 2
    assert verify_halin(g, outer)


def test_cubic_n10_seed1():
    g, outer = generate(GenSpec(10, "halin_cubic", 1))
    assert [g.degree(v) for v in g.vertices()] == [3] * 10
    assert verify_halin(g, outer)


def test_cubic_rejects_odd_and_small():
    with pytest.raises(ValueError):
        generate(GenSpec(7, "halin_cubic"))
    with pytest.raises(ValueError):
        generate(GenSpec(2, "halin_cubic"))


def test_generate_dispatch():
    g, outer = generate(GenSpec(6, "wheel"))
    assert g.degree(5) == 5
    g, outer = generate(GenSpec(8, "necklace"))
    assert g.n == 8 and all(g.degree(v) == 3 for v in g.vertices())
    with pytest.raises(ValueError):
        generate(GenSpec(8, "moebius"))
    with pytest.raises(ValueError):
        generate(GenSpec(9, "necklace"))
    with pytest.raises(ValueError):
        generate(GenSpec(4, "necklace"))


def test_generate_names_an_unknown_variant():
    # A check of generate itself; the generators' own errors are pinned
    # in test_cli.py.
    with pytest.raises(ValueError) as info:
        generate(GenSpec(8, "moebius"))
    assert str(info.value) == "unknown variant 'moebius'"


@pytest.mark.parametrize("variant", ["wheel", "necklace", "halin", "halin_cubic"])
@pytest.mark.parametrize("n", [8.0, True, "8"])
def test_a_size_that_is_no_int_raises_value_error(variant, n):
    # Graph's id rule: type(n) is int, so a float, a str or a bool is no size.
    with pytest.raises(ValueError, match="must be an int"):
        generate(GenSpec(n, variant))


@pytest.mark.parametrize("make", [make_wheel, make_necklace])
def test_the_sized_generators_check_the_type_of_their_size(make):
    for n in (6.0, True, "6"):
        with pytest.raises(ValueError, match="must be an int"):
            make(n)
