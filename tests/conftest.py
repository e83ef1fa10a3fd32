"""Shared fixtures: hand-built Halin instances with known structure."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from halin import Graph
from halin.generators import _close_cycle as build_halin  # child lists, root 0: tree plus DFS leaf cycle


@pytest.fixture(scope="session")
def loglog_slope():
    """``loglog_slope`` of benchmark/spans.py, the repo's one log-log fitter.

    Loaded by path: benchmark/ is a directory of scripts, not a package.
    """
    path = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.loglog_slope


@pytest.fixture
def prism() -> Graph:
    """Triangular prism: two triangles joined by a perfect matching."""
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )


@pytest.fixture
def two_tone_odd_cycle() -> tuple[Graph, set[int]]:
    """8 vertices, odd cycle showing both tree colors (coloring case 3)."""
    return build_halin([[1, 2, 7], [3, 4], [5, 6], [], [], [], [], []])


@pytest.fixture
def odd_fan_graph() -> tuple[Graph, set[int]]:
    """11 vertices, monochromatic odd cycle with an odd true fan (case 4)."""
    return build_halin(
        [[1, 2, 3], [4, 5, 6], [7, 8], [9, 10], [], [], [], [], [], [], []]
    )


@pytest.fixture
def pseudo_fan_graph() -> tuple[Graph, set[int]]:
    """16 vertices, monochromatic odd cycle where every true fan is even,
    so recoloring must pick an odd pseudo-fan (the lone leaf under the
    root, whose center has two internal neighbors)."""
    children: list[list[int]] = [[] for _ in range(16)]
    children[0] = [1, 2, 15]
    children[1] = [3, 4]
    children[2] = [5, 6]
    children[3] = [7, 8]
    children[4] = [9, 10]
    children[5] = [11, 12]
    children[6] = [13, 14]
    return build_halin(children)


@pytest.fixture
def three_pseudo_fans_graph() -> tuple[Graph, set[int]]:
    """23 vertices, monochromatic odd cycle with no odd true fan and
    three odd pseudo-fans, each one leaf: under 5, then twice under 4
    (its leaf children 14 and 16 lie on either side of the subtree of 15)."""
    children: list[list[int]] = [[] for _ in range(23)]
    children[0] = [1, 2, 3]
    children[2] = [4, 5]
    children[4] = [14, 15, 16]
    children[5] = [6, 7]
    children[6] = [8, 9]
    children[8] = [12, 13]
    children[9] = [10, 11]
    children[15] = [17, 18]
    children[17] = [21, 22]
    children[18] = [19, 20]
    return build_halin(children)


@pytest.fixture
def centre_leaf_graph() -> tuple[Graph, set[int]]:
    """23 vertices, 13 leaves: case 4 recolors the lone leaf 1 under the
    root, whose other leaf, 3, lies 8 places on and must take the other
    tree color in place of C3."""
    children: list[list[int]] = [[] for _ in range(23)]
    children[0] = [1, 2, 3, 4]
    children[2] = [5, 6]
    children[4] = [7, 8]
    children[5] = [9, 10]
    children[10] = [11, 12]
    children[6] = [13, 14]
    children[7] = [15, 16]
    children[8] = [17, 18]
    children[11] = [19, 20]
    children[12] = [21, 22]
    return build_halin(children)
