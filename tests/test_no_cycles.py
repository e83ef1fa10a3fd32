"""The pipeline leaves no reference cycles behind: with the cyclic
collector off, everything it builds is freed by reference counting
alone, so a caller may run it with ``gc.disable()``.

With the collector on, a result adds nothing to the collections that
follow it. ``peo_halin`` stores its trace as one flat list, six entries
a step (rule, eliminated vertex and four clique ids), all of them
untracked, and ``PeoResult.trace`` builds the TraceSteps on each read.
So ``peo_halin`` keeps no tuple per step, and a live result holds no
tracked object that every later full collection would rescan."""

import gc
import hashlib
import json

from halin import (
    GenSpec,
    Graph,
    certificate_from_outer,
    chordal_completion,
    color_halin,
    generate,
    peo_halin,
    recognize,
    verify_peo,
)
from halin.generators import VARIANTS
from halin.io import certificate_from_dict, certificate_to_dict, dumps_graph, graph_from_dict
from halin.peo import TraceStep
from halin.recognition import check_certificate


def _pipeline(n):
    for variant in VARIANTS:
        g, outer = generate(GenSpec(n, variant, seed=1))
        g, outer = graph_from_dict(json.loads(dumps_graph(g, outer)))
        cert = recognize(g).certificate
        color_halin(g, cert)
        result = peo_halin(g, cert)
        completion = chordal_completion(g, result)
        assert verify_peo(completion, result.order)
        dumps_graph(completion)
    # One rejection, and one certificate through JSON and back.
    assert not recognize(Graph.from_edges(g.n + 1, g.edges())).is_halin
    doc = json.loads(json.dumps(certificate_to_dict(cert)))
    assert check_certificate(g, certificate_from_dict(doc)) == cert


def test_pipeline_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        _pipeline(2000)
        assert gc.collect() == 0
    finally:
        gc.enable()


# sha256 of json.dumps(trace) for peo_halin on 16k-vertex graphs of seed 1
# in generator labelling. The first three were pinned when the steps were
# stored as TraceSteps, halin_cubic when they were stored as plain tuples.
TRACE_SHA256 = {
    "wheel": "5b982e12ccbd75f0a50f73d8495eccfc159dc6b1468457fb0e802c2fb952eee8",
    "necklace": "3a7fdc13b8887c054f6a3877a4cc800a35775f40b82d211183fef2939f21e007",
    "halin": "a7ad327596793288b91a9a170819979da3b3c8d5a7c86f65c3e1f1a2bee0cb0b",
    "halin_cubic": "aae9461b8d68400bd53c2917e16ba65f1e7310b8a7748fea327c8e314f520a40",
}


def _peo_16k(variant):
    g, outer = generate(GenSpec(16000, variant, seed=1))
    return peo_halin(g, certificate_from_outer(g, outer))


def test_a_result_holds_no_tracked_objects():
    # Also run directly, as test_a_result_holds_no_tracked_objects(), on
    # interpreters without pytest: the tracking rule is CPython's own.
    for variant in TRACE_SHA256:
        result = _peo_16k(variant)
        gc.collect()
        gc.collect()
        held = gc.get_referents(*vars(result).values())
        assert len(held) > 16000
        assert sum(map(gc.is_tracked, held)) == 0, variant


def test_trace_reads_as_the_pinned_trace_steps():
    for variant, digest in TRACE_SHA256.items():
        trace = _peo_16k(variant).trace
        assert len(trace) == 15996
        assert all(type(step) is TraceStep for step in trace)
        assert hashlib.sha256(json.dumps(trace).encode()).hexdigest() == digest


def test_trace_is_read_only_and_new_on_each_read():
    result = _peo_16k("halin")
    first = result.trace
    assert result.trace == first and result.trace is not first
    first.clear()
    assert len(result.trace) == 15996
    try:
        result.trace = []
    except AttributeError:
        pass
    else:
        raise AssertionError("PeoResult.trace took an assignment")

