"""Empirical scaling of the coloring and elimination passes.

Both walk the cycle a constant number of times, so doubling the instance
should roughly double the runtime: a log-log slope near 1. The elimination
cursor only ever moves forward along the cycle: besides its n - 4
reductions it takes exactly n/2 idle steps on a necklace (4000 at
n = 8000, 16000 at n = 32000), so the naive quadratic bound is far from
what is measured.

The slope is fitted by ``loglog_slope`` of benchmark/spans.py, the fitter
the benchmark reports and the acceptance tests gate on; benchmark/ is a
directory of scripts, so it is loaded by path.
"""

import importlib.util
import statistics
import time
from pathlib import Path

from halin import GenSpec, certificate_from_outer, color_halin, generate, peo_halin

_spec = importlib.util.spec_from_file_location(
    "spans", Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

SIZES = [2000, 4000, 8000, 16000, 32000]


def show(name, algorithm, variant, repeats=3):
    """Median of ``repeats`` timed runs per size, then the fitted slope."""
    print(f"{name} / {variant}:")
    points = []
    for n in SIZES:
        g, outer = generate(GenSpec(n, variant, seed=0))
        cert = certificate_from_outer(g, outer)
        runs = []
        for _ in range(repeats):
            start = time.perf_counter()
            algorithm(g, cert)
            runs.append(time.perf_counter() - start)
        median = statistics.median(runs)
        points.append((variant, g.n, median))
        print(f"  n = {g.n:>6}   median {median * 1e3:8.2f} ms")
    print(f"  fitted log-log slope: {spans.loglog_slope(points):.3f}\n")


show("color", color_halin, "halin")
show("peo", peo_halin, "halin")
show("peo", peo_halin, "necklace")
