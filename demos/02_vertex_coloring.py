"""Color Halin graphs optimally: 3 colors, or 4 exactly on even wheels.

The tree is 2-colored by depth parity, then part of the cycle is
recolored. Which pattern applies depends on the cycle parity and the
colors the tree coloring left on the cycle; the trace records the case.
"""

from halin import (
    ColoringTrace,
    GenSpec,
    certificate_from_outer,
    chromatic_number_bruteforce,
    color_halin,
    make_halin,
    make_wheel,
)

for n in (4, 5, 6, 7, 10, 11):
    g, outer = make_wheel(n)
    cert = certificate_from_outer(g, outer)
    trace = ColoringTrace()
    colors = color_halin(g, cert, trace)
    print(
        f"wheel W{n}: case {trace.case}, {len(set(colors.values()))} colors "
        f"(brute force says {chromatic_number_bruteforce(g, 5) if n <= 16 else '-'})"
    )

# On random instances the coloring stays proper and 3 colors suffice.
# n=40 takes case 3; n=11 and n=16 take case 4, recoloring an odd fan
# and an odd pseudo-fan.
for spec in (GenSpec(40, seed=11), GenSpec(11, seed=9), GenSpec(16, seed=27)):
    g, outer = make_halin(spec)
    cert = certificate_from_outer(g, outer)
    trace = ColoringTrace()
    colors = color_halin(g, cert, trace)
    assert all(colors[u] != colors[v] for u, v in g.edges())
    print(f"\nrandom n={spec.n}: case {trace.case}, colors used = {sorted(set(colors.values()))}")
    if trace.odd_run is not None:
        kind = "fan" if trace.odd_run.is_fan else "pseudo-fan"
        print(f"recolored an odd {kind} of length {len(trace.odd_run.run)} "
              f"centered at {trace.odd_run.center}")
