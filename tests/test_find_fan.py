"""The wheel short-circuit of recognize: a vertex joined to all others
is the hub, whatever the labelling."""

import random

import pytest

from halin import Graph, make_wheel, recognize
from halin.recognition import certify


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()]), perm


@pytest.mark.parametrize("n", range(4, 41))
def test_wheels_recognized_with_rim_outer(n):
    rng = random.Random(n)
    g, rim = make_wheel(n)
    relabelled, perm = _relabel(g, rng)
    # A dead id in the middle of the id range: shift every id above it.
    dead = rng.randrange(n)
    holed = Graph.from_edges(
        n + 1, [(a + (a >= dead), b + (b >= dead)) for a, b in g.edges()]
    )
    holed.remove_vertex(dead)
    cases = (
        (g, rim),
        (relabelled, {perm[w] for w in rim}),
        (holed, {w + (w >= dead) for w in rim}),
    )
    for graph, expected in cases:
        cert = recognize(graph).certificate
        assert cert is not None
        if n == 4:
            # In K4 every vertex can be the hub; any three form a rim.
            assert len(cert.outer) == 3 and certify(graph, cert.outer) == cert
        else:
            assert cert.outer == expected
