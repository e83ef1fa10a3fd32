"""File formats: the JSON graph format, certificate JSON, and DOT export.

Graph JSON is an object with fields "n" (vertex count), "edges"
(array of [u, v] pairs) and an optional "outer" (array of outer-cycle
vertex ids). Unknown fields, self-loops, duplicate edges (in either
orientation) and ids outside 0..n-1 are rejected. Serialization is canonical
(sorted edges, fixed key order) so equal graphs produce identical bytes.
"""

from __future__ import annotations

import json
import re
from typing import IO, Any

from .graph import Graph
from .recognition import HalinCertificate

_GRAPH_FIELDS = {"n", "edges", "outer"}
_CERT_FIELDS = {"outer", "cycle_order", "root", "parent"}
_ID_KEY = re.compile(r"-?[0-9]+")  # a parent key: an integer in decimal


class GraphFormatError(ValueError):
    """Raised when a graph or certificate document is malformed."""


def _is_id(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def graph_to_dict(g: Graph, outer: set[int] | None = None) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "n": g.n,
        "edges": [[u, v] for u, v in sorted(g.edges())],
    }
    if outer is not None:
        obj["outer"] = sorted(outer)
    return obj


def graph_from_dict(obj: Any) -> tuple[Graph, set[int] | None]:
    if not isinstance(obj, dict):
        raise GraphFormatError("graph document must be a JSON object")
    unknown = set(obj) - _GRAPH_FIELDS
    if unknown:
        raise GraphFormatError(f"unknown fields: {sorted(unknown)}")
    if "n" not in obj or "edges" not in obj:
        raise GraphFormatError('fields "n" and "edges" are required')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise GraphFormatError('"n" must be a non-negative integer')
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be an array of [u, v] pairs')
    # One pass straight into the adjacency sets of a fresh graph, with the
    # checks of add_edge; a duplicate edge leaves fewer distinct edges.
    g = Graph(n)
    adj = g._adjacency()
    for e in edges:
        if not isinstance(e, list) or len(e) != 2:
            raise GraphFormatError(f"bad edge entry: {e!r}")
        u, v = e
        if not (
            isinstance(u, int) and isinstance(v, int)
            and not isinstance(u, bool) and not isinstance(v, bool)
        ):
            raise GraphFormatError(f"bad edge entry: {e!r}")
        if u == v:
            raise GraphFormatError(f"self-loop rejected at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge {e!r} has a vertex id outside 0..{n - 1}")
        adj[u].add(v)
        adj[v].add(u)
    if g.num_edges() != len(edges):
        raise GraphFormatError(
            f"duplicate edges: {len(edges)} listed, {g.num_edges()} distinct"
        )
    outer: set[int] | None = None
    if "outer" in obj:
        raw = obj["outer"]
        if not isinstance(raw, list) or not all(map(_is_id, raw)):
            raise GraphFormatError('"outer" must be an array of vertex ids')
        outer = set(raw)
        if len(outer) != len(raw):
            raise GraphFormatError('"outer" contains duplicate ids')
        for v in outer:
            if not g.has_vertex(v):
                raise GraphFormatError(f"outer vertex {v} is out of range")
    return g, outer


def dumps_graph(g: Graph, outer: set[int] | None = None) -> str:
    return json.dumps(graph_to_dict(g, outer), separators=(", ", ": ")) + "\n"


def save_graph(path: str, g: Graph, outer: set[int] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_graph(g, outer))


def load_graph(path: str) -> tuple[Graph, set[int] | None]:
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from None
    return graph_from_dict(obj)


def certificate_to_dict(cert: HalinCertificate) -> dict[str, Any]:
    return {
        "outer": sorted(cert.outer),
        "cycle_order": list(cert.cycle_order),
        "root": cert.root,
        "parent": {str(v): p for v, p in sorted(cert.parent.items())},
    }


def certificate_from_dict(obj: Any) -> HalinCertificate:
    """Parse a certificate document; ids must be JSON integers.

    Only the keys of "parent" are strings, as JSON requires, and each must
    be an integer in decimal. A float, a bool or a string where an id
    belongs, an "outer" or "cycle_order" that is not an array, or an
    "outer" with a repeated id is a GraphFormatError.
    """
    if not isinstance(obj, dict):
        raise GraphFormatError("certificate document must be a JSON object")
    unknown = set(obj) - _CERT_FIELDS
    if unknown:
        raise GraphFormatError(f"unknown fields: {sorted(unknown)}")
    missing = _CERT_FIELDS - set(obj)
    if missing:
        raise GraphFormatError(f"bad certificate: missing fields {sorted(missing)}")
    for name in ("outer", "cycle_order"):
        if not isinstance(obj[name], list) or not all(map(_is_id, obj[name])):
            raise GraphFormatError(f'bad certificate: "{name}" must be an array of vertex ids')
    if not _is_id(obj["root"]):
        raise GraphFormatError('bad certificate: "root" must be a vertex id')
    outer = frozenset(obj["outer"])
    if len(outer) != len(obj["outer"]):
        raise GraphFormatError('bad certificate: "outer" contains duplicate ids')
    raw_parent = obj["parent"]
    if not isinstance(raw_parent, dict) or not all(map(_is_id, raw_parent.values())):
        raise GraphFormatError('bad certificate: "parent" must map vertex ids to vertex ids')
    parent = {}
    for key, p in raw_parent.items():
        if not isinstance(key, str) or not _ID_KEY.fullmatch(key):
            raise GraphFormatError(f"bad certificate: parent key {key!r} is not a vertex id")
        parent[int(key)] = p
    return HalinCertificate(outer, tuple(obj["cycle_order"]), parent, obj["root"])


def load_certificate(path: str) -> HalinCertificate:
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from None
    return certificate_from_dict(obj)


def save_certificate(path: str, cert: HalinCertificate) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(certificate_to_dict(cert), separators=(", ", ": ")) + "\n")


# One fill color per color index c1..c4.
_PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3")


def write_dot(
    f: IO[str],
    g: Graph,
    colors: dict[int, int] | None = None,
    outer: set[int] | None = None,
) -> None:
    """Write a DOT rendering; cycle edges are drawn bold, tree edges thin."""
    f.write("graph halin {\n")
    f.write('  node [shape=circle, style=filled, fillcolor="#eeeeee"];\n')
    for v in sorted(g.vertices()):
        if colors is not None and v in colors:
            f.write(f'  {v} [fillcolor="{_PALETTE[colors[v] % 4]}"];\n')
        else:
            f.write(f"  {v};\n")
    for u, v in sorted(g.edges()):
        if outer is not None and u in outer and v in outer:
            f.write(f"  {u} -- {v} [penwidth=2.5];\n")
        else:
            f.write(f"  {u} -- {v};\n")
    f.write("}\n")
