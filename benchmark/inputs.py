"""Workload inputs, made from the workload seed through the public API only.

Sizes and variants are fixed per workload; the seed picks the random
trees, the vertex permutations and the non-Halin constructions, so every
seed does the same amount of work on different graphs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from halin import Graph, GenSpec, dumps_graph, generate

from checks import digest

# large-halin: (variant, n) per graph, in generator labelling. Every variant
# has at least two sizes so the per-variant log-log slopes are defined. Eight
# of the twelve graphs have 8k or 12k vertices, so the latencies around the
# median are many and close together, without a gap between size groups.
LARGE = (
    ("wheel", 8000), ("necklace", 8000), ("halin", 8000), ("halin_cubic", 8000),
    ("wheel", 12000), ("necklace", 12000), ("halin", 12000), ("halin_cubic", 12000),
    ("halin", 16000), ("halin_cubic", 16000), ("necklace", 32000), ("wheel", 64000),
)
# relabelled-mix: a size ladder per variant, copied MIX_COPIES times with
# fresh trees and permutations. halin and wheel get odd sizes on every
# other rung, so both odd and even wheels appear.
MIX_LADDER = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048)
MIX_COPIES = 4
# Prism half-cycle lengths (n = 2k) and the sizes of the other non-Halin
# constructions, per copy.
MIX_PRISMS = (4, 6, 12, 24, 48, 96, 192, 384, 768, 1024)
MIX_BROKEN = (8, 32, 128, 512, 2048)
# cli-files: one file pair per graph. halin has two sizes for the slope.
CLI = (
    ("halin", 2000), ("halin", 16000), ("halin_cubic", 4000), ("necklace", 8000), ("wheel", 4000),
)
VARIANTS = ("halin", "halin_cubic", "necklace", "wheel")


@dataclass(frozen=True)
class Item:
    """One input. ``outer`` is the known outer set, None for non-Halin inputs."""

    key: str
    kind: str
    graph: Graph
    outer: frozenset[int] | None
    path: str = ""          # cli-files: graph file without "outer"
    outer_path: str = ""    # cli-files: graph file with "outer"

    @property
    def expected_colors(self) -> int:
        return 4 if self.kind == "wheel" and self.graph.n % 2 == 0 else 3


def _generate(tracer, variant: str, n: int, rng: random.Random):
    spec = GenSpec(n=n, variant=variant, seed=rng.randrange(2**31))
    return tracer.call("generators.generate", generate, spec)


def _relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()])


def _permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _prism(k: int) -> Graph:
    """C_k x K2: 3-regular and, for k >= 4, triangle-free, so never Halin."""
    edges = []
    for i in range(k):
        j = (i + 1) % k
        edges += [(i, j), (k + i, k + j), (i, k + i)]
    return Graph.from_edges(2 * k, edges)


def _union(a: Graph, b: Graph) -> Graph:
    shift = a.n
    return Graph.from_edges(a.n + b.n, list(a.edges()) + [(u + shift, v + shift) for u, v in b.edges()])


def _subdivide(g: Graph, rng: random.Random) -> Graph:
    """Replace one edge by a path through a new vertex of degree 2."""
    edges = sorted(g.edges())
    u, v = edges[rng.randrange(len(edges))]
    rest = [e for e in edges if e != (u, v)]
    return Graph.from_edges(g.n + 1, rest + [(u, g.n), (g.n, v)])


def large_halin(seed: int, tracer, workdir: str) -> list[Item]:
    rng = random.Random(f"large-halin:{seed}")
    items = []
    for variant, n in LARGE:
        g, outer = _generate(tracer, variant, n, rng)
        items.append(Item(f"{variant}-{n}", variant, g, frozenset(outer)))
    return items


def relabelled_mix(seed: int, tracer, workdir: str) -> list[Item]:
    rng = random.Random(f"relabelled-mix:{seed}")
    items = []
    for copy in range(MIX_COPIES):
        for variant in VARIANTS:
            for rung, size in enumerate(MIX_LADDER):
                n = size + (rung % 2 if variant in ("halin", "wheel") else 0)
                g, outer = _generate(tracer, variant, n, rng)
                perm = _permutation(n, rng)
                items.append(Item(f"{variant}-{n}-{copy}", variant, _relabel(g, perm),
                                  frozenset(perm[v] for v in outer)))
        non_halin = [(f"prism-{2 * k}-{copy}", "prism", _prism(k)) for k in MIX_PRISMS]
        for size in MIX_BROKEN:
            a, _ = _generate(tracer, "halin", size, rng)
            b, _ = _generate(tracer, "halin_cubic", size, rng)
            non_halin.append((f"union-{2 * size}-{copy}", "union", _union(a, b)))
            non_halin.append((f"subdivided-{size + 1}-{copy}", "subdivided", _subdivide(a, rng)))
        for key, kind, g in non_halin:
            items.append(Item(key, kind, _relabel(g, _permutation(g.n, rng)), None))
    rng.shuffle(items)
    return items


def cli_files(seed: int, tracer, workdir: str) -> list[Item]:
    rng = random.Random(f"cli-files:{seed}")
    os.makedirs(workdir, exist_ok=True)
    items = []
    for variant, n in CLI:
        g, outer = _generate(tracer, variant, n, rng)
        key = f"{variant}-{n}"
        path = os.path.join(workdir, f"{key}.json")
        outer_path = os.path.join(workdir, f"{key}.outer.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(dumps_graph(g))
        with open(outer_path, "w", encoding="utf-8") as f:
            f.write(dumps_graph(g, outer))
        items.append(Item(key, variant, g, frozenset(outer), path, outer_path))
    return items


def inputs_digest(items: list[Item]) -> str:
    """Hash of every input graph, its known outer set and its files."""
    parts = []
    for it in items:
        parts.append((it.key, it.graph.n, sorted(it.graph.edges()),
                      sorted(it.outer) if it.outer is not None else None))
        for path in (it.path, it.outer_path):
            if path:
                with open(path, "rb") as f:
                    parts.append(f.read())
    return digest(*parts)
