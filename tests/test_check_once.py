"""A certificate from ``certify`` is checked once per graph: later checks
of that same object on the unchanged graph are skipped, and every
change to the graph, or any other certificate, brings the full check back."""

import copy
import pickle

import pytest

from halin import (
    GenSpec,
    MalformedCertificateError,
    color_halin,
    generate,
    peo_halin,
    recognize,
)
from halin.recognition import HalinCertificate, check_certificate


def _certified(n=30, seed=2):
    g, _ = generate(GenSpec(n, "halin", seed=seed))
    return g, recognize(g).certificate


def _add_edge(g, cert):
    inner = sorted(set(g.vertices()) - cert.outer)
    u, v = next((a, b) for a in inner for b in sorted(cert.outer) if not g.has_edge(a, b))
    g.add_edge(u, v)


def _remove_edge(g, cert):
    g.remove_edge(cert.cycle_order[0], cert.cycle_order[1])


def _add_vertex(g, cert):
    g.add_vertex()


@pytest.mark.parametrize(
    "mutate", [_add_edge, _remove_edge, _add_vertex],
    ids=["add_edge", "remove_edge", "add_vertex"],
)
def test_mutation_brings_the_full_check_back(mutate):
    g, cert = _certified()
    color_halin(g, cert)
    peo_halin(g, cert)
    mutate(g, cert)
    with pytest.raises(MalformedCertificateError):
        color_halin(g, cert)
    with pytest.raises(MalformedCertificateError):
        peo_halin(g, cert)


def test_equal_certificate_is_checked_in_full():
    g, cert = _certified()
    # A copy of cert's fields: certificate_from_outer would record its
    # own result on g in place of cert.
    other = HalinCertificate(cert.outer, cert.cycle_order, dict(cert.parent), cert.root)
    assert other == cert and other is not cert
    # Change g behind its mutators' back, so that it still records cert:
    # only the very object certify built skips the check.
    inner = sorted(set(g.vertices()) - cert.outer)
    u, v = next((a, b) for a in inner for b in inner if a < b and not g.has_edge(a, b))
    adj = g._adjacency()
    adj[u].add(v)
    adj[v].add(u)
    check_certificate(g, cert)
    with pytest.raises(MalformedCertificateError):
        check_certificate(g, other)
    with pytest.raises(MalformedCertificateError):
        color_halin(g, other)
    with pytest.raises(MalformedCertificateError):
        peo_halin(g, other)


def test_fresh_and_copied_graphs_record_nothing():
    g, cert = _certified()
    assert g._certified() is cert
    assert g.copy()._certified is None
    h, _ = generate(GenSpec(30, "halin", seed=2))
    assert h._certified is None


def test_parent_map_is_read_only():
    _, cert = _certified()
    v = next(iter(cert.parent))
    before = dict(cert.parent)
    for write in (
        lambda d: d.__setitem__(v, 0),
        lambda d: d.__delitem__(v),
        lambda d: d.update({v: 0}),
        lambda d: d.setdefault(-1, 0),
        lambda d: d.pop(v),
        lambda d: d.popitem(),
        lambda d: d.clear(),
    ):
        with pytest.raises(TypeError):
            write(cert.parent)
    with pytest.raises(TypeError):
        cert.parent[v] = 0
    parent = cert.parent
    with pytest.raises(TypeError):
        parent |= {v: 0}
    assert cert.parent == before
    assert repr(cert.parent) == repr(before)


def test_certificate_pickles_and_copies_equal():
    g, cert = _certified()
    for clone in (pickle.loads(pickle.dumps(cert)), copy.deepcopy(cert), copy.copy(cert)):
        assert clone == cert
        assert repr(clone) == repr(cert)
        with pytest.raises(TypeError):
            clone.parent[next(iter(clone.parent))] = 0
        color_halin(g, clone)  # checked in full, and valid


def test_certified_graph_pickles_without_its_record():
    g, cert = _certified()
    h = pickle.loads(pickle.dumps(g))
    assert h._certified is None
    assert sorted(h.edges()) == sorted(g.edges())
    assert color_halin(h, cert) == color_halin(g, cert)


def test_neighbors_cannot_change_the_graph():
    # Adding to the set neighbors returned used to add an edge behind the
    # mutators, so the check of the recorded certificate was skipped on a
    # graph it no longer described.
    g, cert = _certified()
    m = g.num_edges()
    inner = sorted(set(g.vertices()) - cert.outer)
    u, v = next((a, b) for a in inner for b in inner if a < b and not g.has_edge(a, b))
    with pytest.raises(AttributeError):
        g.neighbors(u).add(v)
    with pytest.raises(AttributeError):
        g.neighbors(v).add(u)
    assert g.num_edges() == m and not g.has_edge(u, v)
    assert isinstance(g.neighbors(u), frozenset)
    assert g.neighbors(u) == set(g._adjacency()[u])
    check_certificate(g, cert)
