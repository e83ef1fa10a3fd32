"""Halin graph recognition, certificate construction, and verification.

Recognition never tests planarity. Following Eppstein ("Simple
recognition of Halin graphs and their generalizations", JGAA 2016), it
shrinks the graph by two local rules on triangles of degree-3 vertices
until four vertices are left, then undoes the rules on each candidate rim
of the residue to recover an outer cycle. The outer set is always
re-checked by ``certify``, which builds the certificate in the same
pass, so a bad reduction can only cause a rejection, never a wrong
acceptance. The same pass proves the graph connected and of minimum
degree 3, so ``recognize`` tests those only before it rejects.

``certify`` is the only code that builds or validates a certificate.
Every certificate is derived from its outer set: ``certificate_from_outer``
is ``certify`` that raises, and ``check_certificate`` is ``certify`` on
the certificate's outer set plus an equality test.

``_built`` maps each graph, by identity, to a weak reference to the
certificate ``certify`` last built for it, and ``check_certificate``
passes that very object unchecked: the graph and the certificate are
immutable, and only the builder writes the record. A pickled or copied
graph starts unchecked; an entry goes with its graph.
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from collections.abc import Iterator
from itertools import compress, filterfalse, repeat
from operator import ne

from .graph import Graph, _ids

REASON_DISCONNECTED = "disconnected"
REASON_LOW_DEGREE = "vertex_of_degree_below_3"
REASON_STUCK = "reduction_stuck"
REASON_VERIFY_FAILED = "certificate_verification_failed"


class MalformedCertificateError(ValueError):
    """Raised when an operation is handed a certificate that does not fit."""


class _ReadOnlyDict(dict):
    """A dict that refuses every mutation, so a checked certificate stays
    checked. Compares, prints, pickles and copies like a dict."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("the parent map of a certificate is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return (_ReadOnlyDict, (dict(self),))


class _Record:
    """Value equality, and a repr that lists the fields in the order
    ``__init__`` sets them, each as attribute access reads it, for a class
    that keeps its fields in ``__dict__``. Instances are unhashable."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__dict__)
        return f"{type(self).__name__}({fields})"


class HalinCertificate(_Record):
    """Outer cycle plus inner tree of a Halin decomposition.

    ``cycle_order`` lists the outer vertices in cyclic order; ``parent``
    maps every vertex except ``root`` to its tree parent, and the tree
    edges are exactly the non-cycle edges of the graph.

    A checked certificate is in one canonical form, fixed by ``outer``:
    ``cycle_order`` starts at the smallest outer id and walks toward its
    smaller outer neighbour, ``root`` is the smallest inner vertex, and
    ``parent`` lists the vertices in the BFS order of the tree from the
    root.

    A certificate is immutable: assigning or deleting a field raises
    AttributeError. It equals only another certificate with equal fields.
    """

    outer: frozenset[int]
    cycle_order: tuple[int, ...]
    parent: dict[int, int]
    root: int

    def __init__(self, outer, cycle_order, parent, root) -> None:
        self.__dict__.update(outer=outer, cycle_order=cycle_order, parent=parent, root=root)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RecognitionResult(namedtuple("RecognitionResult", "certificate reason")):
    """The certificate of a Halin graph, or None and the reason it is not."""

    __slots__ = ()

    @property
    def is_halin(self) -> bool:
        return self.certificate is not None


_built: weakref.WeakKeyDictionary[Graph, weakref.ref] = weakref.WeakKeyDictionary()


def certificate_from_outer(g: Graph, outer: set[int]) -> HalinCertificate:
    """The certificate ``certify`` builds for ``outer`` on ``g``.

    Raises MalformedCertificateError on any outer set that fails
    conditions (a)-(e) of ``certify``. Like every certificate ``certify``
    builds, the result is recorded for ``g``, so ``check_certificate``
    passes it without a second check.
    """
    cert = certify(g, outer)
    if cert is None:
        raise MalformedCertificateError("outer is not the outer cycle of a Halin decomposition")
    return cert


def check_certificate(g: Graph, cert: HalinCertificate) -> HalinCertificate:
    """The certificate ``certify`` builds from ``cert.outer``, if it
    equals ``cert``; the guard in front of coloring and elimination.

    Raises MalformedCertificateError when the outer set fails ``certify``,
    or naming the first field of ``cert`` that differs from the one
    derived from its outer set. Callers go on with the returned object.

    Returns ``cert`` at once, without checking, when ``_built`` records
    it as the very object ``certify`` last built for ``g``. An equal
    certificate built any other way is checked in full.
    """
    ref = _built.get(g)
    if ref is not None and ref() is cert:
        return cert
    built = certificate_from_outer(g, cert.outer)
    for name in ("outer", "root", "cycle_order", "parent"):
        if getattr(cert, name) != getattr(built, name):
            raise MalformedCertificateError(
                f"{name} differs from the one certify derives from the outer set"
            )
    return built


def certify(g: Graph, outer: set[int]) -> HalinCertificate | None:
    """The certificate of ``outer`` if it witnesses a Halin decomposition
    of ``g``, else None; one walk of the cycle, one of the tree, and one
    tour of the tree in cycle order.

    Accepts iff (a) the outer vertices induce a single cycle, (b) removing
    the cycle edges leaves a spanning tree, (c) whose leaves are exactly
    the outer vertices, (d) with no inner vertex of tree-degree 2, and
    (e) the leaves of every subtree form a contiguous arc of the cycle,
    i.e. the cycle order is realizable by a planar embedding of the tree.
    So an accepted g is connected and has minimum degree 3.
    The certificate is in the canonical form ``HalinCertificate``
    describes, with a read-only parent map, and ``check_certificate``
    passes it on ``g`` without a second check.
    """
    outer = frozenset(outer)  # the certificate's own set; no copy if frozen
    adj = g._adj
    if not _ids(outer, len(adj)):
        return None
    # Outer vertices: 2 cycle neighbors + 1 tree parent; an empty set fails.
    if set(map(len, map(adj.__getitem__, outer))) != {3}:
        return None
    # (a) The walk from the smallest outer id toward its smaller outer
    # neighbor.
    start = min(outer)
    first = sorted(adj[start] & outer)
    if len(first) != 2:  # one or two outer vertices fail here
        return None
    # Every vertex the walk reaches has exactly two outer neighbours (the
    # checks below), so it can reach no vertex but start twice, and ends.
    order = [start]
    prev, cur = start, first[0]
    while cur != start:
        order.append(cur)
        # cur has degree 3 and was reached from prev: exactly one of its
        # other two neighbours must be outer.
        a, b, c = adj[cur]
        if a == prev:
            a = c
        elif b == prev:
            b = c
        if a in outer:
            if b in outer:
                return None
        elif b in outer:
            a = b
        else:
            return None
        prev, cur = cur, a
    cyc_len = len(order)
    if cyc_len != len(outer):
        return None
    n = g.n
    if g.num_edges() - cyc_len != n - 1:
        return None
    # (b) BFS over the non-cycle edges from the smallest inner vertex. An
    # outer vertex has exactly one of those, to the vertex it was reached
    # from, so only inner vertices, whose edges are all non-cycle, are
    # expanded. Some vertex is inner: with all n outer and of degree 3,
    # m - n = n/2 != n - 1.
    root = next(filterfalse(outer.__contains__, g.vertices()))
    parent = [-1] * n  # by id, -1 until reached; the map is built at the end
    depth = [0] * n
    parent[root] = root
    bfs = [root]
    inner = [root]  # the expanded vertices
    for v in inner:  # also yields the ones appended below
        d = depth[v] + 1
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                depth[w] = d
                bfs.append(w)
                if w not in outer:
                    inner.append(w)
    if len(bfs) != n:
        return None
    # Inner vertices touch no cycle edge, so their tree-degree is their
    # plain degree.
    if min(map(len, map(adj.__getitem__, inner))) < 3:
        return None
    # (e) The leaves are now exactly the outer vertices, so every tree
    # edge splits them into two non-empty sides, and the tour along the
    # tree paths between consecutive cycle vertices crosses it an even
    # number of times, two iff each side is an arc. The side below
    # (v, parent v) is v's subtree: (e) holds iff the tour is 2(n - 1) long.
    steps = 2 * (n - 1)
    for u, v in zip(order, order[1:] + order[:1]):
        while u != v:  # up from the deeper end to the common ancestor
            if depth[u] < depth[v]:
                v = parent[v]
            else:
                u = parent[u]
            steps -= 1
        if steps < 0:
            return None
    below_root = bfs[1:]
    parent_map = _ReadOnlyDict(zip(below_root, map(parent.__getitem__, below_root)))
    cert = HalinCertificate(outer, tuple(order), parent_map, root)
    _built[g] = weakref.ref(cert)
    return cert


def verify_halin(g: Graph, outer: set[int]) -> bool:
    """Check that ``outer`` witnesses a Halin decomposition of ``g``:
    conditions (a)-(e) of ``certify``."""
    return certify(g, outer) is not None


def recognize(g: Graph) -> RecognitionResult:
    """Decide whether ``g`` is a Halin graph.

    On acceptance the certificate is the one ``certify`` builds for the
    recovered outer set; on rejection the result carries a reason code.
    ``certify`` proves connectivity and minimum degree 3 of what it
    accepts, so on a rejection those two checks only pick the reason
    code: first connectivity, then degree. The one minimum-degree pass
    also sends an input with a vertex of degree below 3 there unreduced.
    """
    n = g.n
    src = g._adj
    hubs: list[int] = []
    low = min(map(len, src), default=3) < 3
    # A Halin graph has at least four vertices, each of degree 3 or more;
    # any other input goes straight to the rejection path.
    if n >= 4 and not low:
        # In a Halin graph a vertex joined to all others is the hub of a
        # wheel (any vertex of K4), whose rim is known without reducing.
        adj, residue, trace = src, range(n), []
        if max(map(len, src)) < n - 1:
            adj, trace = _reduce(src)
            residue = list(filter(adj.__getitem__, range(n)))  # ids with neighbours
        # The hub candidates: all four vertices of K4, the one hub of a wheel.
        joined_to_all = map((len(residue) - 1).__eq__, map(len, map(adj.__getitem__, residue)))
        hubs = list(compress(residue, joined_to_all))
        if len(residue) > 4 and len(hubs) > 1:
            hubs = []
        # Every Halin outer cycle has m - n + 1 vertices.
        size = g.num_edges() - n + 1
        for outer in _rims(hubs, trace, n, size):
            cert = certify(g, outer)
            if cert is not None:
                return RecognitionResult(cert, None)
    if not g.is_connected():
        return RecognitionResult(None, REASON_DISCONNECTED)
    if low:
        return RecognitionResult(None, REASON_LOW_DEGREE)
    return RecognitionResult(None, REASON_VERIFY_FAILED if hubs else REASON_STUCK)


def _reduce(src: list[set[int]]) -> tuple[list[set[int]], list[tuple[int, ...]]]:
    """Apply the merge and triangle rules to a copy of ``src`` until four
    vertices are left or no rule applies.

    Every vertex has degree 3 or more, and no rule lowers a degree. In a
    Halin graph with more than four vertices every triangle is an inner
    vertex (the centre) plus two consecutive leaves, so each rule turns a
    Halin graph into a smaller one in which the kept vertex x is a leaf:

    - merge (x, y): x and y have degree 3, are adjacent and share exactly
      one neighbour v, of degree at least 4, and their third neighbours
      differ. They are two leaves of the centre v; y is deleted and x
      takes over y's third neighbour.
    - triangle (x, y, v, x', y', v'): x, y and v have degree 3, are
      mutually adjacent and have distinct outside neighbours x', y', v'.
      One of them is a centre, whose outside neighbour is its parent, and
      the other two are its only leaves; y and v are deleted and x is
      joined to all three outside neighbours. Which one is the centre is
      left open until expansion.

    Returns the reduced adjacency sets (a vertex a rule deleted has none)
    and the trace, one tuple per rule in the order applied.
    """
    adj = list(map(set.copy, src))
    live = len(src)
    trace: list[tuple[int, ...]] = []
    # Only degree-3 vertices take part in a rule. A rule changes the
    # neighbours of the kept vertex and of its new neighbours, and in a
    # merge the degree of v, so a new instance contains one of those and
    # only they are pushed again. Each pop is O(1); no hub is scanned.
    stack = list(range(live - 1, -1, -1))
    while live > 4 and stack:
        x = stack.pop()
        nbrs = adj[x]
        if len(nbrs) != 3:
            continue
        a, b, c = nbrs
        na = adj[a]
        ab = b in na
        ac = c in na
        bc = c in adj[b]
        if not (ab or ac or bc):
            continue  # x lies on no triangle
        # For each neighbour y of x, in set order, with o1 and o2 the other
        # two: x and y must share exactly one neighbour v, so v is o1 or o2.
        for y, o1, o2, in1, in2 in ((a, b, c, ab, ac), (b, a, c, ab, bc), (c, a, b, ac, bc)):
            if in1 == in2:
                continue
            ny = adj[y]
            if len(ny) != 3:
                continue
            v, x_out = (o1, o2) if in1 else (o2, o1)
            y_out = sum(ny) - x - v  # ny is {x, v, y_out}; in1 != in2, so y_out != x_out
            if len(adj[v]) > 3:
                # merge (x, y): y is deleted, x joined to y_out.
                adj[v].discard(y)
                adj[y_out].discard(y)
                adj[y].clear()
                nbrs.discard(y)
                nbrs.add(y_out)
                adj[y_out].add(x)
                trace.append((x, y))
                live -= 1
                stack += (y_out, x)
                if len(adj[v]) == 3:
                    stack += (*adj[v], v)
                break
            v_out = sum(adj[v]) - x - y  # adj[v] is {x, y, v_out}
            if v_out == x_out or v_out == y_out:
                continue
            # triangle (x, y, v): y and v are deleted, x joined to y_out, v_out.
            adj[y_out].discard(y)
            adj[v_out].discard(v)
            adj[y].clear()
            adj[v].clear()
            nbrs.clear()
            nbrs.update((x_out, y_out, v_out))
            adj[y_out].add(x)
            adj[v_out].add(x)
            trace.append((x, y, v, x_out, y_out, v_out))
            live -= 2
            stack += (y_out, v_out, x)
            break
    return adj, trace


def _rims(
    hubs: list[int], trace: list[tuple[int, ...]], n: int, size: int
) -> Iterator[frozenset[int]]:
    """The rim of the residue around each hub in turn, with the rules of
    ``trace`` undone, last first; only rims of ``size`` vertices.

    One pass over the trace serves every hub: v is on the rim around the
    i-th hub, counting from 1, unless ``label[v]`` is i.
    """
    if not hubs:
        return
    label = [0] * n
    for i, hub in enumerate(hubs, 1):
        label[hub] = i
    for step in reversed(trace):
        if len(step) == 2:
            x, y = step
            label[y] = label[x]  # y was a leaf exactly where x is one
        else:
            # Each of x, y, v is a leaf exactly when its outside neighbour
            # is on the rim; the centre's is its parent, an inner vertex.
            x, y, v, x_out, y_out, v_out = step
            label[x] = label[x_out]
            label[y] = label[y_out]
            label[v] = label[v_out]
    for i in range(1, len(hubs) + 1):
        if n - label.count(i) == size:
            yield frozenset(compress(range(n), map(ne, label, repeat(i))))
