"""The checks behind ``halin verify``, which run at every n, against the
exhaustive references of ``reference.py``: the chordality test by
maximum cardinality search on every labelled graph with n <= 6, and the
coloring witness, the completion's PEO and the chordality test on every
Halin graph with at most 8 leaves, in its own labelling and in a random
one."""

import random
from itertools import combinations

import pytest

from halin import (
    Graph,
    chordal_completion,
    color_halin,
    make_necklace,
    make_wheel,
    peo_halin,
    recognize,
)
from halin.coloring import _forced_colors
from halin.peo import _is_chordal, _peo_width
from halin.recognition import HalinCertificate
from reference import (
    chromatic_number_bruteforce,
    halin_graphs,
    is_chordal_bruteforce,
    relabel,
)


@pytest.mark.parametrize("n", range(7))
def test_chordal_check_matches_brute_force_on_every_labelled_graph(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
        assert _is_chordal(g) == is_chordal_bruteforce(g), sorted(g.edges())


def test_enumerator_yields_every_plane_tree():
    # Halin graphs with 3..8 leaves: one per plane tree whose root has
    # >= 3 children and whose other inner nodes have >= 2.
    counts = [0] * 9
    for _, outer in halin_graphs(8):
        counts[len(outer)] += 1
    assert counts[3:] == [1, 4, 17, 76, 353, 1688]


def _check_witnesses(g):
    """Assert what ``halin verify`` checks on the Halin graph g: recognize
    accepts, the coloring witness and the color count equal the brute-force
    chromatic number, the elimination took |C| - 3 R1 and (n - |C|) - 1 R2
    steps on the outer cycle C, and the completion has treewidth 3 and is
    chordal. Returns the completion."""
    cert = recognize(g).certificate
    assert cert is not None, sorted(g.edges())
    chromatic = chromatic_number_bruteforce(g, 5)
    assert _forced_colors(g, cert) == chromatic, sorted(g.edges())
    assert len(set(color_halin(g, cert).values())) == chromatic
    result = peo_halin(g, cert)
    # R1 eliminates every cycle vertex but three, R2 every inner one but one.
    r2_steps = sum(step.rule == "R2" for step in result.trace)
    assert len(result.trace) - r2_steps == len(cert.outer) - 3
    assert r2_steps == g.n - len(cert.outer) - 1
    completion = chordal_completion(g, result)
    assert _peo_width(completion, result.order) == 3
    assert _is_chordal(completion)
    return completion


def test_witnesses_on_every_halin_graph_up_to_8_leaves():
    rng = random.Random(8)
    for tree_graph, _ in halin_graphs(8):
        for g in (tree_graph, relabel(tree_graph, rng)[0]):
            assert is_chordal_bruteforce(_check_witnesses(g))


def enumerated_agreement(leaves):
    """The count of Halin graphs per leaf count from 3 to ``leaves``,
    running ``_check_witnesses`` on each graph with exactly ``leaves``
    leaves, in its own labelling only. CI also runs 9 leaves:
    [1, 4, 17, 76, 353, 1688, 8257], in about 2 s."""
    counts = [0] * (leaves + 1)
    for g, outer in halin_graphs(leaves):
        counts[len(outer)] += 1
        if len(outer) == leaves:
            _check_witnesses(g)
    return counts[3:]


def test_coloring_witness_is_read_from_the_graph():
    # The certificate names the witness; the edges must be the graph's.
    for n in (6, 7):
        g, _ = make_wheel(n)
        cert = recognize(g).certificate
        assert _forced_colors(g, cert) == (4 if n % 2 == 0 else 3)
        assert _forced_colors(Graph(n), cert) is None


def test_coloring_witness_needs_a_shared_parent():
    # A forged parent map in which no two consecutive cycle vertices share
    # a parent: there is no triangle to read.
    g, _ = make_necklace(3)
    cert = recognize(g).certificate
    forged = HalinCertificate(cert.outer, cert.cycle_order, {**cert.parent, 6: 0, 7: 1}, cert.root)
    assert [forged.parent[v] for v in forged.cycle_order] == [0, 1, 2, 0, 1]
    assert _forced_colors(g, forged) is None
