"""Generate Halin graphs and recognize them back.

A Halin graph is a plane tree with no degree-2 node plus a cycle through
its leaves. The recognizer never touches planarity: it shrinks the graph
by two local rules on triangles of degree-3 vertices until four vertices
remain, then undoes the rules to recover the outer cycle.
"""

from halin import GenSpec, Graph, generate, make_necklace, make_wheel, recognize

# The smallest members of the family.
for name, (g, outer) in {
    "wheel W4 (= K4)": make_wheel(4),
    "wheel W6": make_wheel(6),
    "3-prism (necklace, spine 2)": make_necklace(2),
    "random Halin, 10 vertices": generate(GenSpec(10, seed=7)),
}.items():
    print(f"{name}: {g.n} vertices, {g.num_edges()} edges, outer cycle {sorted(outer)}")

# Recognition emits a certificate: the outer cycle in order, plus the
# inner tree as a parent map.
g, _ = generate(GenSpec(12, seed=3))
result = recognize(g)
cert = result.certificate
print("\nrecognized a 12-vertex instance:")
print("  cycle order:", cert.cycle_order)
print("  tree root:  ", cert.root)
print("  parents:    ", cert.parent)

# Non-members are rejected with a reason.
c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
print("\nC5 ->", recognize(c5).reason)

two_parts = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (6, 7)])
print("K4 + extra pieces ->", recognize(two_parts).reason)
