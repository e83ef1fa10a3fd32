"""Perfect elimination ordering of a treewidth-3 chordal completion.

Reducing a Halin graph to K4 with the rules R1 (drop the middle of three
consecutive cycle vertices under one center, fill the gap) and R2 (drop
an exhausted fan center, fill toward its third neighbor) yields both the
elimination order and the fill edges of a chordal supergraph.
"""

from halin import (
    GenSpec,
    certificate_from_outer,
    chordal_completion,
    generate,
    make_wheel,
    peo_halin,
    verify_peo,
)
from halin.peo import _peo_width

# W5 takes a single R1 step: eliminate rim vertex 1, fill 0-2.
g, outer = make_wheel(5)
result = peo_halin(g, certificate_from_outer(g, outer))
print("W5 elimination order:", result.order)
print("W5 fill edges:       ", sorted(result.fill_edges))
for step in result.trace:
    print(f"  {step.rule}: removed {step.eliminated}, clique {step.clique}")

# A larger instance: the order is a PEO, so the completion is chordal, and
# the width never exceeds 3 (one less than the K4 cliques the rules build).
g, outer = generate(GenSpec(40, seed=8))
result = peo_halin(g, certificate_from_outer(g, outer))
completion = chordal_completion(g, result)
print(f"\nn=40: {len(result.fill_edges)} fill edges, "
      f"PEO valid (so chordal) = {verify_peo(completion, result.order)}, "
      f"treewidth = {_peo_width(completion, result.order)}")
print("rule sequence:", "".join(step.rule[-1] for step in result.trace))
