"""A certificate from ``certify`` is checked once per graph: later checks
of that same object are skipped, as neither can change, and any other
certificate brings the full check back."""

import copy
import pickle
import weakref

import pytest

import halin.recognition as recognition
from halin import (
    GenSpec,
    Graph,
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


def _edge_added(g, cert):
    inner = sorted(set(g.vertices()) - cert.outer)
    chord = next((a, b) for a in inner for b in sorted(cert.outer) if not g.has_edge(a, b))
    return Graph.from_edges(g.n, [*g.edges(), chord])


def _edge_removed(g, cert):
    cut = {cert.cycle_order[0], cert.cycle_order[1]}
    return Graph.from_edges(g.n, [e for e in g.edges() if set(e) != cut])


def _vertex_added(g, cert):
    return Graph.from_edges(g.n + 1, g.edges())


@pytest.mark.parametrize(
    "edit", [_edge_added, _edge_removed, _vertex_added],
    ids=["edge-added", "edge-removed", "vertex-added"],
)
def test_edited_rebuild_is_checked_in_full(edit):
    # The record is per graph: a graph built from g's edges with one edit
    # does not trust the certificate g recorded.
    g, cert = _certified()
    color_halin(g, cert)
    peo_halin(g, cert)
    h = edit(g, cert)
    with pytest.raises(MalformedCertificateError):
        color_halin(h, cert)
    with pytest.raises(MalformedCertificateError):
        peo_halin(h, cert)


def test_equal_certificate_is_checked_in_full():
    g, cert = _certified()
    # A copy of cert's fields: certificate_from_outer would record its
    # own result on g in place of cert.
    other = HalinCertificate(cert.outer, cert.cycle_order, dict(cert.parent), cert.root)
    assert other == cert and other is not cert
    # Change g's own adjacency sets, so that it still records cert: only
    # the very object certify built skips the check.
    inner = sorted(set(g.vertices()) - cert.outer)
    u, v = next((a, b) for a in inner for b in inner if a < b and not g.has_edge(a, b))
    adj = g._adj
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
    assert recognition._built[g]() is cert
    h, _ = generate(GenSpec(30, "halin", seed=2))
    assert h not in recognition._built


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
        with pytest.raises(AttributeError):
            clone.root = cert.root
        with pytest.raises(AttributeError):
            del clone.parent
        assert clone != (clone.outer, clone.cycle_order, clone.parent, clone.root)
        assert weakref.ref(clone)() is clone
        with pytest.raises(TypeError):
            hash(clone)


def test_certified_graph_pickles_without_its_record():
    g, cert = _certified()
    h = pickle.loads(pickle.dumps(g))
    assert h not in recognition._built
    assert sorted(h.edges()) == sorted(g.edges())
    assert color_halin(h, cert) == color_halin(g, cert)


def test_only_the_certificate_certify_built_skips_the_check(monkeypatch):
    g, cert = _certified()
    calls = []
    certify = recognition.certify

    def counted_certify(g, outer):
        calls.append(g)
        return certify(g, outer)

    monkeypatch.setattr(recognition, "certify", counted_certify)
    color_halin(g, cert)
    peo_halin(g, cert)
    assert calls == []
    # A pickled copy is a new graph: the first check is in full, and
    # records the certificate it returns, which then skips the check.
    h = pickle.loads(pickle.dumps(g))
    checked = check_certificate(h, cert)
    assert calls == [h] and checked == cert
    color_halin(h, checked)
    peo_halin(h, checked)
    assert calls == [h]
    # cert itself was not built for h, so each use of it checks in full.
    color_halin(h, cert)
    peo_halin(h, cert)
    assert calls == [h, h, h]


def test_neighbors_cannot_change_the_graph():
    # Adding to the set neighbors returned used to add an edge to the
    # graph, so the check of the recorded certificate was skipped on a
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
    assert g.neighbors(u) == set(g._adj[u])
    check_certificate(g, cert)
