"""Every certificate is derived from its outer set: a certificate that
differs from the one ``certify`` builds from its outer set is rejected
by ``check_certificate``, ``color_halin`` and ``peo_halin`` alike."""

import random

import pytest

from halin import (
    GenSpec,
    Graph,
    MalformedCertificateError,
    certificate_from_outer,
    color_halin,
    generate,
    make_wheel,
    peo_halin,
    recognize,
    verify_halin,
)
from halin.generators import VARIANTS
from halin.recognition import HalinCertificate, certify, check_certificate


def test_subdivided_spoke_has_no_certificate():
    # The 6-wheel with hub 5 and its spoke 5-0 subdivided by vertex 6:
    # the rim still induces a cycle and the other edges still form a
    # spanning tree, but the tree has a node of degree 2.
    g, rim = make_wheel(6)
    g.remove_edge(5, 0)
    w = g.add_vertex()
    g.add_edge(5, w)
    g.add_edge(w, 0)
    assert certify(g, rim) is None
    assert recognize(g).reason == "vertex_of_degree_below_3"
    with pytest.raises(MalformedCertificateError):
        certificate_from_outer(g, rim)
    cert = HalinCertificate(frozenset(rim), (0, 1, 2, 3, 4), {1: 5, 2: 5, 3: 5, 4: 5, w: 5, 0: w}, 5)
    for call in (check_certificate, color_halin, peo_halin):
        with pytest.raises(MalformedCertificateError):
            call(g, cert)


# Outer sets on make_wheel(6), whose rim is 0..4 around hub 5, each with
# ids that are not ints; True would pass for 1.
LOOSE_OUTERS = {
    "str": {"a", "b", "c"},
    "float": {0.0, 1, 2, 3, 4},
    "bool": {0, True, 2, 3, 4},
}


@pytest.mark.parametrize("name", sorted(LOOSE_OUTERS))
def test_outer_ids_that_are_not_ints_certify_nothing(name):
    g, _ = make_wheel(6)
    outer = LOOSE_OUTERS[name]
    assert certify(g, outer) is None
    assert verify_halin(g, outer) is False
    with pytest.raises(MalformedCertificateError):
        certificate_from_outer(g, outer)
    cert = HalinCertificate(frozenset(outer), (0, 1, 2, 3, 4), dict.fromkeys(range(5), 5), 5)
    for call in (check_certificate, color_halin, peo_halin):
        with pytest.raises(MalformedCertificateError):
            call(g, cert)


def _relabel(g, outer, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabelled = Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])
    return relabelled, {perm[v] for v in outer}


def _certificates():
    """About 200 certificates: every variant at 25 sizes, in generator
    labelling and under one random relabelling each."""
    rng = random.Random(17)
    for variant in VARIANTS:
        for n in range(6, 56, 2):
            g, outer = generate(GenSpec(n, variant, seed=n))
            yield g, certify(g, outer)
            h, h_outer = _relabel(g, outer, rng)
            yield h, certify(h, h_outer)


def _tampered(g, cert, rng):
    """One certificate per kind of tampering, each a plain HalinCertificate."""
    cyc = list(cert.cycle_order)
    parent = dict(cert.parent)
    outer = cert.outer
    inner = sorted(set(g.vertices()) - outer)
    i, j = rng.sample(range(len(cyc)), 2)
    swapped = list(cyc)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    k = rng.randrange(1, len(cyc))
    v = rng.choice(sorted(parent))
    repointed = dict(parent)
    repointed[v] = rng.choice([u for u in g.vertices() if u not in (v, parent[v])])
    out_of_range = dict(parent)
    out_of_range[g.n + rng.randrange(3)] = cert.root
    cases = {
        "swap": (outer, swapped, parent, cert.root),
        "rotate": (outer, cyc[k:] + cyc[:k], parent, cert.root),
        "reverse": (outer, cyc[::-1], parent, cert.root),
        "repoint": (outer, cyc, repointed, cert.root),
        "root": (outer, cyc, parent, rng.choice([u for u in g.vertices() if u != cert.root])),
        "drop": (outer - {rng.choice(cyc)}, cyc, parent, cert.root),
        "add": (outer | {rng.choice(inner)}, cyc, parent, cert.root),
        "shift": (
            frozenset(u + 1 for u in outer),
            [u + 1 for u in cyc],
            {u + 1: p + 1 for u, p in parent.items()},
            cert.root + 1,
        ),
        "out-of-range key": (outer, cyc, out_of_range, cert.root),
    }
    for kind, (o, c, p, r) in cases.items():
        yield kind, HalinCertificate(frozenset(o), tuple(c), p, r)


def test_tampered_certificates_are_rejected():
    # Every tampering changes a field, so each call must raise the one
    # documented error; pytest.raises lets any other exception through.
    rng = random.Random(3)
    certs = list(_certificates())
    assert len(certs) == 200
    for g, cert in certs:
        for kind, bad in _tampered(g, cert, rng):
            assert bad != cert, kind
            for call in (check_certificate, color_halin, peo_halin):
                with pytest.raises(MalformedCertificateError):
                    call(g, bad)
        assert check_certificate(g, cert) == cert
