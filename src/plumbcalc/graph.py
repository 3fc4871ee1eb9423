"""Decorated plumbing trees: data model, file format, blow-up calculus.

A plumbing graph here is a finite forest whose vertices carry an exact
rational Euler decoration ``e_v``.  Canonical (user-level) graphs are
connected trees with integer decorations; rational decorations only occur
in transient surgery intermediates before a slope is expanded into a
string.  An integral decoration is stored as an ``int`` and a slope
decoration as a ``Fraction``; the two compare and hash alike, so equality,
hashing and the text form do not depend on how a weight was given.  Genus
decorations are implicitly zero throughout, so the plumbed
3-manifold is a rational homology sphere whenever the form is negative
definite.

Graphs are immutable values: every operation returns a new graph, and ids
of surviving vertices are preserved verbatim so that certificates can
refer to them across operations.  Fresh vertices (blow-ups, strings) get
generated ids that avoid collisions deterministically.

File format (UTF-8, line oriented)::

    # comment to end of line
    vertex <id> <weight>     # weight: decimal integer or p/q fraction
    edge <id> <id>

Ids match ``[A-Za-z0-9_]+``.  Serialization emits vertices sorted by id,
then edges sorted lexicographically.
"""

from __future__ import annotations

import re
from bisect import insort
from fractions import Fraction
from functools import cmp_to_key
from numbers import Rational
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import GraphStructureError, ParseError

VertexId = str

_ID_RE = re.compile(r"[A-Za-z0-9_]+")
_FRACTION_RE = re.compile(r"[+-]?\d+(/0*[1-9]\d*)?", re.ASCII)


def _as_weight(v: VertexId, w) -> Fraction | int:
    """A ``numbers.Rational`` weight as a ``Fraction``, and a ``str`` one
    read as the parser reads it."""
    if isinstance(w, Rational):
        return Fraction(w)
    try:
        return _parse_weight(w)
    except ValueError:
        raise GraphStructureError(f"invalid weight {w!r} of vertex {v!r}") from None


def _normalize_edge(a: VertexId, b: VertexId) -> tuple[VertexId, VertexId]:
    return (a, b) if a < b else (b, a)


class PlumbingGraph:
    """Immutable decorated forest.

    ``weights`` maps vertex id to its exact rational decoration; ``edges``
    is any iterable of id pairs.  Construction validates the forest
    invariants (no self-loops, no multi-edges, no cycles) in one pass: the
    component search fills ``_comps``, and a graph is a forest iff it has
    |V| - #components distinct edges.  The same search leaves ``_order``,
    the (vertex, parent) pairs of each component rooted at its least
    vertex, parents first: the one rooted order that the tree passes read.
    Only a faulty edge list is checked again, edge by edge, to report its
    first fault.  A weight is a ``numbers.Rational`` (``int``, ``bool``,
    ``Fraction``) or a string of the file format (an integer or ``p/q``);
    anything else is a ``GraphStructureError``.  A weight with denominator
    1 is stored as an ``int``, any other as a ``Fraction``.

    As the graph never changes, facts computed about it are stored on it
    on first use: ``_dp`` holds (determinant, definiteness) of the lattice
    (D, P) pass, and ``_stabilized`` the least-id Laufer runs, keyed by
    frozen set, in the layout that ``laufer._stored`` documents and alone
    reads and writes.
    """

    __slots__ = (
        "_weights", "_edges", "_adj", "_vertices", "_integral", "_hash",
        "_dp", "_comps", "_order", "_stabilized",
    )

    def __init__(
        self,
        weights: Mapping[VertexId, Fraction | int | str],
        edges: Iterable[tuple[VertexId, VertexId]] = (),
    ):
        ws: dict[VertexId, Fraction | int] = {}
        integral = True
        for v, w in weights.items():
            if not isinstance(v, str) or not _ID_RE.fullmatch(v):
                raise GraphStructureError(f"invalid vertex id {v!r}")
            if type(w) is not int:
                if type(w) is not Fraction:
                    w = _as_weight(v, w)
                if w.denominator == 1:
                    w = w.numerator
                else:
                    integral = False
            ws[v] = w
        edges = tuple(edges)
        adj: dict[VertexId, list[VertexId]] = {v: [] for v in ws}
        try:
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
        except (KeyError, TypeError, ValueError):  # an undeclared or malformed end
            _raise_edge_fault(ws, edges)
            raise
        self._weights = ws
        self._edges = frozenset((a, b) if a < b else (b, a) for a, b in edges)
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        self._vertices = tuple(sorted(ws))
        self._comps, self._order = _components(self)
        if not len(self._edges) == len(edges) == len(ws) - len(self._comps):
            _raise_edge_fault(ws, edges)
        self._integral = integral
        self._hash: int | None = None
        self._dp = self._stabilized = None

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[VertexId, VertexId], ...]:
        return tuple(sorted(self._edges))

    def weight(self, v: VertexId) -> Fraction | int:
        try:
            return self._weights[v]
        except KeyError:
            raise GraphStructureError(f"unknown vertex {v!r}") from None

    def weights(self) -> dict[VertexId, Fraction | int]:
        return dict(self._weights)

    def neighbors(self, v: VertexId) -> tuple[VertexId, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphStructureError(f"unknown vertex {v!r}") from None

    def degree(self, v: VertexId) -> int:
        return len(self.neighbors(v))

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._weights

    def has_edge(self, a: VertexId, b: VertexId) -> bool:
        return _normalize_edge(a, b) in self._edges

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlumbingGraph):
            return NotImplemented
        return self._weights == other._weights and self._edges == other._edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((tuple(sorted(self._weights.items())), self._edges))
        return self._hash

    def __repr__(self) -> str:
        return f"PlumbingGraph({len(self)} vertices, {len(self._edges)} edges)"

    # -- derived structure -------------------------------------------------

    def is_connected(self) -> bool:
        return len(self.component_vertex_sets()) <= 1

    def has_integer_weights(self) -> bool:
        return self._integral

    def component_vertex_sets(self) -> list[frozenset[VertexId]]:
        """Connected components as vertex sets, sorted by least member."""
        return list(self._comps)


def _raise_edge_fault(ws: Mapping, edges: Sequence) -> None:
    """Raise the error of the first faulty edge, checking each edge in turn
    for a loop, an undeclared end, a repeat and a cycle (by union-find)."""
    parent = {v: v for v in ws}

    def find(x: VertexId) -> VertexId:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    eset: set[tuple[VertexId, VertexId]] = set()
    for a, b in edges:
        if a == b:
            raise GraphStructureError(f"loop at vertex {a!r}")
        if a not in ws or b not in ws:
            missing = a if a not in ws else b
            raise GraphStructureError(f"edge to undeclared vertex {missing!r}")
        e = _normalize_edge(a, b)
        if e in eset:
            raise GraphStructureError(f"multi-edge between {a!r} and {b!r}")
        ra, rb = find(a), find(b)
        if ra == rb:
            raise GraphStructureError(f"cycle detected through edge {a!r}-{b!r}")
        parent[ra] = rb
        eset.add(e)


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> PlumbingGraph:
    """Parse the line-oriented graph format; all errors carry line numbers."""
    weights: dict[VertexId, Fraction | int] = {}
    edges: list[tuple[VertexId, VertexId]] = []
    seen: set[tuple[VertexId, VertexId]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "vertex":
            if len(parts) != 3:
                raise ParseError("expected 'vertex <id> <weight>'", lineno)
            _, vid, wtext = parts
            if not _ID_RE.fullmatch(vid):
                raise ParseError(f"invalid vertex id {vid!r}", lineno)
            if vid in weights:
                raise ParseError(f"duplicate vertex {vid!r}", lineno)
            try:
                weights[vid] = _parse_weight(wtext)
            except ValueError:
                raise ParseError(f"invalid weight {wtext!r}", lineno) from None
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise ParseError("expected 'edge <id> <id>'", lineno)
            _, a, b = parts
            if a == b:
                raise ParseError(f"loop at vertex {a!r}", lineno)
            if a not in weights or b not in weights:
                missing = a if a not in weights else b
                raise ParseError(f"edge to undeclared vertex {missing!r}", lineno)
            e = (a, b) if a < b else (b, a)
            if e in seen:
                raise ParseError(f"multi-edge between {a!r} and {b!r}", lineno)
            seen.add(e)
            edges.append((a, b))
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    try:
        return PlumbingGraph(weights, edges)
    except GraphStructureError as exc:
        raise ParseError(str(exc)) from exc


def parse_fraction(text: str) -> Fraction:
    """An integer or ``p/q`` in ASCII digits with q > 0, the form that
    ``str(Fraction)`` writes; anything else raises ``ValueError``."""
    return Fraction(_parse_weight(text))


def _parse_weight(text: str) -> Fraction | int:
    """``parse_fraction``, but an integer string gives an ``int``."""
    if not isinstance(text, str) or not _FRACTION_RE.fullmatch(text):
        raise ValueError(f"expected an integer or 'p/q' string, got {text!r}")
    return Fraction(text) if "/" in text else int(text)  # raises past the digit limit


def serialize_graph(g: PlumbingGraph) -> str:
    """Canonical text form: vertices sorted by id, then sorted edges."""
    lines = [f"vertex {v} {g.weight(v)}" for v in g.vertices]
    lines.extend(f"edge {a} {b}" for a, b in g.edges)
    return "\n".join(lines) + "\n"


def fresh_ids(g: PlumbingGraph, prefix: str, count: int) -> list[VertexId]:
    """Deterministic unused ids ``<prefix>1, <prefix>2, ...`` skipping collisions."""
    out: list[VertexId] = []
    i = 1
    while len(out) < count:
        cand = f"{prefix}{i}"
        if not g.has_vertex(cand):  # i only grows, so cand is new to out
            out.append(cand)
        i += 1
    return out


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def valency(g: PlumbingGraph, v: VertexId) -> int:
    """Edge count at ``v``; a vertex with valency >= 3 is a node."""
    return g.degree(v)


def nodes(g: PlumbingGraph) -> tuple[VertexId, ...]:
    """Vertices of valency >= 3, sorted."""
    return tuple(v for v in g.vertices if g.degree(v) >= 3)


def blow_up_edge(g: PlumbingGraph, e: tuple[VertexId, VertexId]) -> PlumbingGraph:
    """Subdivide edge ``e`` by a fresh (-1)-vertex, dropping both endpoint
    weights by 1.  Preserves det and the definiteness verdict."""
    v, w = e
    if not g.has_edge(v, w):
        raise GraphStructureError(f"edge {v!r}-{w!r} not in graph")
    (u,) = fresh_ids(g, "b", 1)
    ws = g.weights()
    ws[v] -= 1
    ws[w] -= 1
    ws[u] = -1
    edges = [ed for ed in g.edges if ed != _normalize_edge(v, w)]
    edges.extend([(v, u), (u, w)])
    return PlumbingGraph(ws, edges)


def blow_down(g: PlumbingGraph, v: VertexId) -> PlumbingGraph:
    """Remove a (-1)-vertex of valency <= 2 (inverse of a blow-up).

    Valency 2: the two neighbors become adjacent; valency <= 1: nothing is
    reconnected.  Every former neighbor's weight increases by 1.
    """
    if g.weight(v) != -1:
        raise GraphStructureError(f"blow_down: weight of {v!r} is {g.weight(v)}, not -1")
    nbrs = g.neighbors(v)
    if len(nbrs) > 2:
        raise GraphStructureError(f"blow_down: valency of {v!r} is {len(nbrs)} > 2")
    ws = g.weights()
    del ws[v]
    for n in nbrs:
        ws[n] += 1
    edges = [e for e in g.edges if v not in e]
    if len(nbrs) == 2:
        edges.append((nbrs[0], nbrs[1]))
    return PlumbingGraph(ws, edges)


def minimize(g: PlumbingGraph) -> PlumbingGraph:
    """Blow down until no (-1)-vertex of valency <= 2 remains.

    The last remaining vertex is never deleted, so the single (-1) vertex
    is the canonical representative of S^3 rather than an empty graph.
    The result is independent of blow-down order (property-tested).  Each
    step blows down the least qualifying id, on a copy of the weights and
    adjacency, and one graph is built at the end.
    """
    if not g.is_connected():
        raise GraphStructureError("minimize requires a connected graph")
    ws = g.weights()
    adj = {v: set(ns) for v, ns in g._adj.items()}

    def blowable(v: VertexId) -> bool:
        return ws[v] == -1 and len(adj[v]) <= 2

    cands = [v for v in g.vertices if blowable(v)]  # kept sorted
    while cands and len(ws) > 1:
        v = cands.pop(0)
        if v not in ws or not blowable(v):
            continue  # stale: weights only rise, so it cannot qualify again
        nbrs = adj.pop(v)
        del ws[v]
        for n in nbrs:
            ws[n] += 1
            adj[n].remove(v)
        if len(nbrs) == 2:
            a, b = nbrs
            adj[a].add(b)
            adj[b].add(a)
        for n in nbrs:
            if blowable(n):
                insort(cands, n)
    if len(ws) == len(g):
        return g
    return PlumbingGraph(ws, [(a, b) for a in ws for b in adj[a] if a < b])


def is_minimal(g: PlumbingGraph) -> bool:
    """True when ``minimize`` would leave ``g`` unchanged."""
    if len(g) == 1:
        return True
    return not any(g.weight(v) == -1 and g.degree(v) <= 2 for v in g.vertices)


def delete(
    g: PlumbingGraph,
    vertices: Iterable[VertexId] = (),
    edges: Iterable[tuple[VertexId, VertexId]] = (),
) -> PlumbingGraph:
    """Drop the given vertices (with incident edges) and/or edges."""
    vs = set(vertices)
    for v in vs:
        if not g.has_vertex(v):
            raise GraphStructureError(f"unknown vertex {v!r}")
    es = set()
    for a, b in edges:
        if not g.has_edge(a, b):
            raise GraphStructureError(f"edge {a!r}-{b!r} not in graph")
        es.add(_normalize_edge(a, b))
    ws = {v: w for v, w in g.weights().items() if v not in vs}
    kept = [
        e for e in g.edges if e not in es and e[0] not in vs and e[1] not in vs
    ]
    return PlumbingGraph(ws, kept)


def _components(g: PlumbingGraph) -> tuple[tuple[frozenset[VertexId], ...], list]:
    """The components of ``g`` and its rooted order.  Each search starts at
    the least vertex not yet reached, so the components come sorted by
    least member; the order gets the (vertex, parent) pair of each vertex
    as it is reached, so parents come first and each component's pairs are
    contiguous."""
    seen: set[VertexId] = set()
    comps: list[frozenset[VertexId]] = []
    order: list[tuple[VertexId, VertexId | None]] = []
    for start in g.vertices:
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], [start]
        order.append((start, None))
        while stack:
            u = stack.pop()
            for w in g._adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
                    order.append((w, u))
        comps.append(frozenset(comp))
    return tuple(comps), order


def subgraph(g: PlumbingGraph, vertices: Iterable[VertexId]) -> PlumbingGraph:
    """Induced subgraph on the given vertex set."""
    keep = set(vertices)
    for v in keep:
        if not g.has_vertex(v):
            raise GraphStructureError(f"unknown vertex {v!r}")
    ws = {v: g.weight(v) for v in keep}
    es = [e for e in g.edges if e[0] in keep and e[1] in keep]
    return PlumbingGraph(ws, es)


def components(g: PlumbingGraph) -> list[PlumbingGraph]:
    """Connected components, sorted by least vertex id."""
    return [subgraph(g, comp) for comp in g.component_vertex_sets()]


def rooted_preorder(
    g: PlumbingGraph, root: VertexId
) -> list[tuple[VertexId, VertexId | None]]:
    """(vertex, parent) pairs of the tree holding ``root``, parents first."""
    order: list[tuple[VertexId, VertexId | None]] = []
    stack: list[tuple[VertexId, VertexId | None]] = [(root, None)]
    while stack:
        v, p = stack.pop()
        order.append((v, p))
        stack.extend((c, v) for c in g.neighbors(v) if c != p)
    return order


# ---------------------------------------------------------------------------
# Canonical form and isomorphism
# ---------------------------------------------------------------------------

Code = tuple  # nested (weight, (child codes...)) tuples


def _compare_codes(a: Code, b: Code) -> int:
    """Three-way comparison in nested-tuple order, without recursion: the
    built-in tuple comparison recurses once per level and overflows on
    deep trees."""
    stack = [((a,), (b,), 0)]  # (sibling codes, sibling codes, next index)
    while stack:
        xs, ys, i = stack.pop()
        if i < len(xs) and i < len(ys):
            stack.append((xs, ys, i + 1))
            (wx, kx), (wy, ky) = xs[i], ys[i]
            if wx != wy:
                return -1 if wx < wy else 1
            stack.append((kx, ky, 0))
        elif len(xs) != len(ys):
            return -1 if len(xs) < len(ys) else 1
    return 0


_code_key = cmp_to_key(_compare_codes)


def _subtree_codes(g: PlumbingGraph, root: VertexId) -> dict[VertexId, Code]:
    """Rooted code of every subtree of ``g`` rooted at ``root``, children
    before parents; a code is (weight, sorted child codes)."""
    codes: dict[VertexId, Code] = {}
    for v, p in reversed(rooted_preorder(g, root)):
        kids = [codes[c] for c in g.neighbors(v) if c != p]
        if len(kids) > 1:
            kids.sort(key=_code_key)
        codes[v] = (g.weight(v), tuple(kids))
    return codes


def _centroid_codes(g: PlumbingGraph) -> tuple[VertexId, dict[VertexId, Code]]:
    """The centroid of a tree with the least rooted code (the least id on
    ties) and the codes of the subtrees under it."""
    rooted = [(c, _subtree_codes(g, c)) for c in tree_centroids(g)]
    return min(rooted, key=lambda rc: _code_key(rc[1][rc[0]]))


def tree_centroids(g: PlumbingGraph) -> tuple[VertexId, ...]:
    """The 1 or 2 centroid vertices of a connected tree (max component of
    ``g - v`` minimized; ties give the two endpoints of the central edge)."""
    if len(g) == 0:
        raise GraphStructureError("empty graph has no centroid")
    n = len(g)
    # subtree sizes via the rooted order, then max-component sizes
    order = g._order
    size = {v: 1 for v in g.vertices}
    for v, p in reversed(order):
        if p is not None:
            size[p] += size[v]
    best: list[VertexId] = []
    best_val = n + 1
    for v, p in order:
        heaviest = n - size[v]
        for c in g.neighbors(v):
            if c != p:
                heaviest = max(heaviest, size[c])
        if heaviest < best_val:
            best_val = heaviest
            best = [v]
        elif heaviest == best_val:
            best.append(v)
    return tuple(sorted(best))


def canonical_code(g: PlumbingGraph) -> Code:
    """Isomorphism-invariant code: per component, the minimum rooted code
    over its centroid(s); components sorted.  Equal codes iff isomorphic."""
    comps = g.component_vertex_sets()
    comp_codes = []
    for comp in comps:
        root, codes = _centroid_codes(g if len(comps) == 1 else subgraph(g, comp))
        comp_codes.append(codes[root])
    return tuple(sorted(comp_codes, key=_code_key))


def is_isomorphic(
    g1: PlumbingGraph, g2: PlumbingGraph
) -> tuple[bool, dict[VertexId, VertexId] | None]:
    """Decorated-forest isomorphism plus a witness vertex map when true."""
    if len(g1) != len(g2):
        return False, None
    comps1 = g1.component_vertex_sets()
    comps2 = g2.component_vertex_sets()
    if len(comps1) != len(comps2):
        return False, None

    def keyed(g: PlumbingGraph, comps: Sequence[frozenset[VertexId]]):
        out = []
        for comp in comps:
            sub = subgraph(g, comp)
            out.append((*_centroid_codes(sub), sub))
        out.sort(key=lambda t: _code_key(t[1][t[0]]))
        return out

    k1, k2 = keyed(g1, comps1), keyed(g2, comps2)
    mapping: dict[VertexId, VertexId] = {}
    for (r1, codes1, s1), (r2, codes2, s2) in zip(k1, k2):
        if _compare_codes(codes1[r1], codes2[r2]):
            return False, None
        # match children in (code, id) order, depth first; neighbours come
        # sorted by id and the sort is stable
        stack = [(r1, None, r2, None)]
        while stack:
            v1, p1, v2, p2 = stack.pop()
            mapping[v1] = v2
            kids1 = [c for c in s1.neighbors(v1) if c != p1]
            kids2 = [c for c in s2.neighbors(v2) if c != p2]
            kids1.sort(key=lambda c: _code_key(codes1[c]))
            kids2.sort(key=lambda c: _code_key(codes2[c]))
            pairs = [(c1, v1, c2, v2) for c1, c2 in zip(kids1, kids2)]
            stack.extend(reversed(pairs))
    return True, mapping
