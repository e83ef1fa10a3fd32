"""Span recording around public calls, and the statistics the benchmark reports.

Spans are kept in memory as (name, op, parent, start, end) and written out
when a run ends. ``op`` identifies the operation, -1 during set-up. A span
of a public call has the operation's span as its parent; operation spans
and start-up probes have none. Nothing here reaches inside the package:
the benchmark wraps each public call it makes with ``Tracer.call``.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from time import perf_counter

# The tail metric is the highest percentile that leaves at least TAIL_BEYOND
# samples above it; below TAIL_LOWEST that is no tail, and the maximum is used.
TAIL_BEYOND = 10
TAIL_LOWEST = 75.0
HD_STEPS = 32         # integration points per order statistic in percentile()


class Tracer:
    """Records one span per wrapped call when enabled; a plain call otherwise."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op = -1
        self.spans: list[tuple[str, int, int | None, float, float]] = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            parent = self.op if self.op >= 0 else None
            self.spans.append((name, self.op, parent, start, perf_counter()))

    def record(self, name: str, start: float, end: float) -> None:
        """A span with no parent: an operation, or a probe outside one."""
        if self.enabled:
            self.spans.append((name, self.op, None, start, end))

    def busy(self) -> dict[str, float]:
        """Total seconds spent in each span name."""
        out: dict[str, float] = defaultdict(float)
        for name, _op, _parent, start, end in self.spans:
            out[name] += end - start
        return out

    def by_name(self, name: str) -> list[tuple[int, float]]:
        """(op id, duration) of every span with this name."""
        return [(op, end - start) for n, op, _parent, start, end in self.spans if n == name]

    def to_json(self) -> list[dict]:
        return [{"name": n, "op": op, "parent": parent, "start": s, "end": e}
                for n, op, parent, s, e in self.spans]


def tail_level(min_samples: int) -> float:
    """Highest percentile with TAIL_BEYOND samples above it at
    ``min_samples``; 100 (the maximum) when that is below TAIL_LOWEST."""
    level = 100.0 * (1 - TAIL_BEYOND / min_samples)
    return level if level >= TAIL_LOWEST else 100.0


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile; the maximum at p = 100.

    A weighted mean of all order statistics, the i-th weighted by the mass
    of Beta(p(n+1), (1-p)(n+1)) on [(i-1)/n, i/n], integrated with the
    midpoint rule. When latencies fall in clusters, one per kind of
    operation, it does not jump between clusters as a single order
    statistic does.
    """
    xs = sorted(values)
    n = len(xs)
    if p >= 100 or n == 1:
        return xs[-1]
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1 / (n * HD_STEPS)
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(HD_STEPS):
            x = (i * HD_STEPS + k + 0.5) * h
            w += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def loglog_slope(points: list[tuple[str, int, float]]) -> float:
    """Least-squares slope of log(seconds) on log(n), one intercept per group.

    ``points`` holds (group, n, seconds). Each group is centred on its own
    means, so variants with different constant factors share one slope.
    Returns 0.0 when no group has two distinct sizes.
    """
    groups: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for group, n, secs in points:
        groups[group].append((math.log(n), math.log(max(secs, 1e-9))))
    sxy = sxx = 0.0
    for pts in groups.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx if sxx > 0 else 0.0
