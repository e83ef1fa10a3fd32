"""The wheel short-circuit of recognize: a vertex joined to all others
is the hub, whatever the labelling."""

import random

import pytest

from halin import make_wheel, recognize
from halin.recognition import certify
from reference import relabel


@pytest.mark.parametrize("n", range(4, 41))
def test_wheels_recognized_with_rim_outer(n):
    rng = random.Random(n)
    g, rim = make_wheel(n)
    relabelled, perm = relabel(g, rng)
    cases = ((g, rim), (relabelled, {perm[w] for w in rim}))
    for graph, expected in cases:
        cert = recognize(graph).certificate
        assert cert is not None
        if n == 4:
            # In K4 every vertex can be the hub; any three form a rim.
            assert len(cert.outer) == 3 and certify(graph, cert.outer) == cert
        else:
            assert cert.outer == expected
