"""The pipeline leaves no reference cycles behind: with the cyclic
collector off, everything it builds is freed by reference counting
alone, so a caller may run it with ``gc.disable()``."""

import gc
import json

from halin import (
    GenSpec,
    Graph,
    chordal_completion,
    color_halin,
    generate,
    peo_halin,
    recognize,
    verify_peo,
)
from halin.generators import VARIANTS
from halin.io import certificate_from_dict, certificate_to_dict, dumps_graph, graph_from_dict
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
