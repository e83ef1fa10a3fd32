"""Empirical scaling of the coloring and elimination passes.

Both walk the cycle a constant number of times, so doubling the instance
should roughly double the runtime: a log-log slope near 1. The elimination
cursor only ever moves forward along the cycle: besides its n - 4
reductions it takes exactly n/2 idle steps on a necklace (4000 at
n = 8000, 16000 at n = 32000), so the naive quadratic bound is far from
what is measured.
"""

from halin.cli import run_bench

SIZES = [2000, 4000, 8000, 16000, 32000]


def show(report):
    print(f"{report['algorithm']} / {report['variant']}:")
    for point in report["points"]:
        print(f"  n = {point['n']:>6}   median {point['median_s'] * 1e3:8.2f} ms")
    print(f"  fitted log-log slope: {report['slope']:.3f}\n")


show(run_bench("color", "halin", SIZES, seed=0, repeats=3))
show(run_bench("peo", "halin", SIZES, seed=0, repeats=3))
show(run_bench("peo", "necklace", SIZES, seed=0, repeats=3))
