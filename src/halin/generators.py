"""Seeded generators for wheels, necklaces, and random Halin graphs.

Every generator returns ``(graph, outer)`` where ``outer`` is the set of
cycle vertices. Random variants grow an ordered plane tree with no
degree-2 node and close the leaf cycle in depth-first leaf order, which
is planar by construction. Randomness comes from ``random.Random``
(Mersenne Twister) seeded explicitly, so a spec reproduces byte-identical
output.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import chain

from .graph import Graph

VARIANTS = ("wheel", "necklace", "halin", "halin_cubic")


class GenSpec(namedtuple("GenSpec", "n variant seed", defaults=("halin", 0))):
    """Generator parameters: target vertex count, variant, RNG seed."""

    __slots__ = ()


def _check_int(n, what: str) -> None:
    """Graph's id rule applied to a size: ``type(n) is int``, so a float,
    a str or a bool is no size."""
    if type(n) is not int:
        raise ValueError(f"{what} must be an int, not {type(n).__name__}")


def make_wheel(n: int) -> tuple[Graph, set[int]]:
    """Wheel on n vertices: hub n-1 joined to the rim cycle 0..n-2."""
    _check_int(n, "wheel vertex count")
    if n < 4:
        raise ValueError("wheel needs at least 4 vertices")
    hub = n - 1
    edges = (e for v in range(hub) for e in ((hub, v), (v, (v + 1) % hub)))
    return Graph.from_edges(n, edges), set(range(hub))


def make_necklace(k: int) -> tuple[Graph, set[int]]:
    """Cubic Halin graph over a caterpillar with spine length k.

    Spine vertices 0..k-1; the spine endpoints carry two leaves each and
    interior spine vertices one, giving 2k+2 vertices in total. Leaves
    get consecutive ids k..2k+1 in planar order, so the cycle joins them
    in id order.
    """
    _check_int(k, "necklace spine length")
    if k < 2:
        raise ValueError("necklace needs spine length at least 2, so at least 6 vertices")
    outer = list(range(k, 2 * k + 2))
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(0, k), (0, 2 * k + 1)]  # the first leaf, before the spine; the last, after
    edges += [(i, k + i) for i in range(1, k - 1)]
    edges += [(k - 1, 2 * k - 1), (k - 1, 2 * k)]
    edges += zip(outer, outer[1:] + outer[:1])
    return Graph.from_edges(2 * k + 2, edges), set(outer)


def generate(spec: GenSpec) -> tuple[Graph, set[int]]:
    """The graph of spec.variant: a wheel or a necklace, which ignore the
    seed, or a random Halin graph, general or cubic, grown here. Each
    builder checks its own sizes; here only the variant and the necklace n,
    which this function turns into a spine length."""
    if spec.variant == "wheel":
        return make_wheel(spec.n)
    if spec.variant == "necklace":
        _check_int(spec.n, "necklace vertex count")
        if spec.n % 2 != 0:
            raise ValueError("necklace requires an even vertex count")
        return make_necklace((spec.n - 2) // 2)
    if spec.variant in ("halin", "halin_cubic"):
        cubic = spec.variant == "halin_cubic"
        return _close_cycle(_grow_tree(spec.n, random.Random(spec.seed), cubic=cubic))
    raise ValueError(f"unknown variant {spec.variant!r}")


def _grow_tree(n: int, rng: random.Random, cubic: bool) -> list[list[int]]:
    """Grow an ordered tree with no degree-2 node by splitting leaves.

    Returns per-vertex ordered child lists. The root starts with 3
    children (4 for n=5 so the budget lands exactly); each split turns a
    leaf into an internal node with 2 children (cubic) or 2-3 children
    (general), never leaving a remainder of 1. Checks n for both variants.
    """
    _check_int(n, "Halin vertex count")
    if n < 4:
        raise ValueError("Halin graphs need at least 4 vertices")
    if cubic and n % 2 != 0:
        raise ValueError("cubic Halin graphs need an even vertex count")
    root_kids = 4 if (not cubic and n == 5) else 3
    children: list[list[int]] = [[]]

    def new_child(parent: int) -> int:
        v = len(children)
        children.append([])
        children[parent].append(v)
        return v

    leaves = [new_child(0) for _ in range(root_kids)]
    while len(children) < n:
        remaining = n - len(children)
        if cubic or remaining in (2, 4):
            k = 2
        elif remaining == 3:
            k = 3
        else:
            k = 2 if rng.random() < 0.7 else 3
        idx = rng.randrange(len(leaves))
        v = leaves[idx]
        leaves[idx] = leaves[-1]
        leaves.pop()
        leaves.extend(new_child(v) for _ in range(k))
    return children


def _close_cycle(children: list[list[int]]) -> tuple[Graph, set[int]]:
    """Build the graph: tree edges plus the cycle in DFS leaf order."""
    order = []
    stack = [0]
    while stack:
        v = stack.pop()
        if children[v]:
            stack.extend(reversed(children[v]))
        else:
            order.append(v)
    tree = ((parent, kid) for parent, kids in enumerate(children) for kid in kids)
    cycle = zip(order, order[1:] + order[:1])
    return Graph.from_edges(len(children), chain(tree, cycle)), set(order)
