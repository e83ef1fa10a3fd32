"""File formats: the JSON graph format, certificate JSON, and DOT export.

Graph JSON is an object with fields "n" (vertex count), "edges"
(array of [u, v] pairs) and an optional "outer" (array of outer-cycle
vertex ids). Unknown fields, self-loops, duplicate edges (in either
orientation), ids outside 0..n-1 and an "n" above 2 * len(edges) + 1
(a bound on memory: at most one vertex may touch no edge) are rejected,
as is a file that is not JSON or nests too deeply for the JSON parser.
Serialization is canonical (sorted edges, fixed key order,
``json.dumps``' default layout) so equal graphs produce identical bytes.
"""

from __future__ import annotations

import json
import re
from collections.abc import Set

from .graph import Graph, _brief, _ids
from .recognition import HalinCertificate

_GRAPH_FIELDS = {"n", "edges", "outer"}
_CERT_FIELDS = {"outer", "cycle_order", "root", "parent"}
_ID_KEY = re.compile(r"-?[0-9]+")  # a parent key: an integer in decimal


class GraphFormatError(ValueError):
    """Raised when a graph or certificate document is malformed."""


def graph_to_dict(g: Graph, outer: set[int] | None = None) -> dict[str, object]:
    """The graph document; raises ValueError unless ``outer`` holds
    distinct vertex ids of g, as ``graph_from_dict`` requires."""
    obj: dict[str, object] = {
        "n": g.n,
        "edges": sorted(g.edges()),  # json writes each (u, v) as [u, v]
    }
    if outer is not None:
        if not _ids(outer, g.n) or len(set(outer)) != len(outer):
            raise ValueError(f"outer must list distinct vertex ids of 0..{g.n - 1}")
        obj["outer"] = sorted(outer)
    return obj


def graph_from_dict(obj: object) -> tuple[Graph, set[int] | None]:
    if not isinstance(obj, dict):
        raise GraphFormatError("graph document must be a JSON object")
    unknown = set(obj) - _GRAPH_FIELDS
    if unknown:
        raise GraphFormatError(f"unknown fields: {_brief(sorted(unknown))}")
    if "n" not in obj or "edges" not in obj:
        raise GraphFormatError('fields "n" and "edges" are required')
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be an array of [u, v] pairs')
    n = obj["n"]
    if type(n) is not int or n < 0:  # Graph's rule: a bool is no count
        raise GraphFormatError('"n" must be a non-negative integer')
    if n > 2 * len(edges) + 1:
        raise GraphFormatError('"n" must be at most 2 * (number of edges) + 1')
    try:
        g = Graph.from_edges(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None
    # A duplicate edge, in either orientation, leaves fewer distinct edges.
    if g.num_edges() != len(edges):
        raise GraphFormatError(
            f"duplicate edges: {len(edges)} listed, {g.num_edges()} distinct"
        )
    outer: set[int] | None = None
    if "outer" in obj:
        raw = obj["outer"]
        if not isinstance(raw, list) or not {*map(type, raw)} <= {int}:
            raise GraphFormatError('"outer" must be an array of vertex ids')
        outer = set(raw)
        if len(outer) != len(raw):
            raise GraphFormatError('"outer" contains duplicate ids')
        if not _ids(outer, n):
            v = next(v for v in outer if not g.has_vertex(v))
            raise GraphFormatError(f"outer vertex {_brief(v)} is out of range")
    return g, outer


def _read_json(path: str) -> object:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise GraphFormatError("invalid JSON: arrays or objects nested too deeply") from None


def _write(path: str, text: str) -> None:
    # Each writer builds its whole text first, so one that fails leaves the file as it was.
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def dumps_graph(g: Graph, outer: set[int] | None = None) -> str:
    return json.dumps(graph_to_dict(g, outer)) + "\n"


def save_graph(path: str, g: Graph, outer: set[int] | None = None) -> None:
    _write(path, dumps_graph(g, outer))


def load_graph(path: str) -> tuple[Graph, set[int] | None]:
    return graph_from_dict(_read_json(path))


def certificate_to_dict(cert: HalinCertificate) -> dict[str, object]:
    """The certificate document; raises ValueError unless every id, in
    "outer", "cycle_order", "root" and both sides of "parent", is an int,
    as ``certificate_from_dict`` requires (a bool is no id)."""
    doc = {
        "outer": sorted(cert.outer),
        "cycle_order": list(cert.cycle_order),
        "root": cert.root,
        "parent": {str(v): p for v, p in sorted(cert.parent.items())},
    }
    ids = {type(cert.root), *map(type, doc["outer"]), *map(type, doc["cycle_order"]),
           *map(type, cert.parent), *map(type, cert.parent.values())}
    if not ids <= {int}:
        raise ValueError("certificate ids must all be ints")
    return doc


def certificate_from_dict(obj: object) -> HalinCertificate:
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
        raise GraphFormatError(f"unknown fields: {_brief(sorted(unknown))}")
    missing = _CERT_FIELDS - set(obj)
    if missing:
        raise GraphFormatError(f"bad certificate: missing fields {sorted(missing)}")
    for name in ("outer", "cycle_order"):
        if not isinstance(obj[name], list) or not {*map(type, obj[name])} <= {int}:
            raise GraphFormatError(f'bad certificate: "{name}" must be an array of vertex ids')
    if type(obj["root"]) is not int:
        raise GraphFormatError('bad certificate: "root" must be a vertex id')
    outer = frozenset(obj["outer"])
    if len(outer) != len(obj["outer"]):
        raise GraphFormatError('bad certificate: "outer" contains duplicate ids')
    raw_parent = obj["parent"]
    if not isinstance(raw_parent, dict) or not {*map(type, raw_parent.values())} <= {int}:
        raise GraphFormatError('bad certificate: "parent" must map vertex ids to vertex ids')
    parent = {}
    for key, p in raw_parent.items():
        if not isinstance(key, str) or not _ID_KEY.fullmatch(key):
            raise GraphFormatError(f"bad certificate: parent key {_brief(key)} is not a vertex id")
        parent[int(key)] = p
    return HalinCertificate(outer, tuple(obj["cycle_order"]), parent, obj["root"])


def load_certificate(path: str) -> HalinCertificate:
    return certificate_from_dict(_read_json(path))


def save_certificate(path: str, cert: HalinCertificate) -> None:
    _write(path, json.dumps(certificate_to_dict(cert)) + "\n")


# One fill color per color index c1..c4.
_PALETTE = ("#e41a1c", "#377eb8", "#4daf4a", "#984ea3")


def write_dot(path: str, g: Graph, colors: dict[int, int], outer: Set[int]) -> None:
    """Write a DOT rendering: each vertex filled with its color (``colors``
    maps every vertex), cycle edges (both ends in ``outer``) drawn bold,
    tree edges thin."""
    lines = ["graph halin {", '  node [shape=circle, style=filled, fillcolor="#eeeeee"];']
    lines += [f'  {v} [fillcolor="{_PALETTE[colors[v] % 4]}"];' for v in g.vertices()]
    for u, v in sorted(g.edges()):
        bold = " [penwidth=2.5]" if u in outer and v in outer else ""
        lines.append(f"  {u} -- {v}{bold};")
    lines.append("}\n")
    _write(path, "\n".join(lines))
