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
then edges sorted lexicographically.  Parse errors name the line of the
first fault; an edge that closes a cycle is named when no line has any
other fault.
"""

from __future__ import annotations

import re
from bisect import insort
from collections.abc import Container, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cmp_to_key
from numbers import Rational

from .errors import GraphStructureError, ParseError

VertexId = str

_ID_RE = re.compile(r"[A-Za-z0-9_]+")
_IDS_RE = re.compile(r"[A-Za-z0-9_]+(?: [A-Za-z0-9_]+)*")  # ids joined by spaces
_FRACTION_RE = re.compile(r"[+-]?\d+(/0*[1-9]\d*)?", re.ASCII)
# the text ``serialize_graph`` writes: vertex lines with integer weights,
# then edge lines, single spaces, every line ended by "\n"
_GRAMMAR_RE = re.compile(
    r"(?:vertex [A-Za-z0-9_]+ -?\d+\n)*(?:edge [A-Za-z0-9_]+ [A-Za-z0-9_]+\n)*", re.ASCII
)


def _ids_valid(ids: Mapping) -> bool:
    """Whether every id is a string matching ``_ID_RE``, by one match over
    the ids joined by spaces; the space count catches an id holding one."""
    try:
        joined = " ".join(ids)
    except TypeError:  # an id that is not a string
        return False
    return joined.count(" ") == len(ids) - 1 and _IDS_RE.fullmatch(joined) is not None


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
    is any iterable of id pairs.  The constructor is the one place that
    checks ids, weights and the forest; ``parse_graph`` leaves all three to
    it.  When every weight is an ``int``, all ids are checked by one match
    over the joined ids; otherwise each vertex is checked in turn, its id
    and then its weight.  The edges, loops and repeats included, go into
    the adjacency ``_adj``, the one record of the edges: each vertex's
    neighbour list, sorted in place (``neighbors`` hands out a tuple, and
    nothing changes a list after the constructor).  The breadth-first
    component search over it counts the trees into ``_tree_count``.  A
    multigraph with c components has |E| >= |V| - c, as each component
    holds a spanning tree, with equality iff no edge closes a cycle, and a
    loop or a repeated edge is a cycle: so the graph is a forest (no loop,
    repeat or cycle) iff ``len(edges) == |V| - _tree_count``, and then
    |V| - |E| is ``_tree_count``.  The same search leaves ``_parent``, each
    vertex's parent in its tree rooted at its least vertex (None at a
    root), whose insertion order is the rooted order, parents first: the
    one tree structure the graph keeps, which the tree passes, the node
    counts, the component sets and the canonical codes read.  Only a
    faulty edge list is checked again, edge by edge, to report its first
    fault.  A weight is a ``numbers.Rational`` (``int``, ``bool``,
    ``Fraction``) or a string of the file format (an integer or ``p/q``);
    anything else is a ``GraphStructureError``.  A weight with denominator
    1 is stored as an ``int``, any other as a ``Fraction``.

    As the graph never changes, facts computed about it are stored on it
    on first use: ``_dp`` holds (determinant, definiteness) of the lattice
    (D, P) pass, ``_stabilized`` the least-id Laufer runs, keyed by frozen
    set, in the layout that ``laufer._stored`` documents (only ``laufer``
    reads and writes it), ``_arrays`` the start record of every Laufer run
    on the graph (``laufer._run_arrays``: the sorted ids positive on l_0),
    set up by the first run,
    ``_nodes`` the tuple ``nodes`` returns, and ``_branches`` the node
    counts of ``surgery._node_counts``, by vertex.
    """

    __slots__ = (
        "_weights", "_adj", "_vertices", "_integral", "_hash",
        "_dp", "_tree_count", "_parent", "_stabilized", "_arrays", "_nodes", "_branches",
    )

    def __init__(
        self,
        weights: Mapping[VertexId, Fraction | int | str],
        edges: Iterable[tuple[VertexId, VertexId]] = (),
    ):
        ws: dict[VertexId, Fraction | int] = dict(weights)
        integral = True
        if not (set(map(type, ws.values())) <= {int} and _ids_valid(ws)):
            ws = {}
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
        for ns in adj.values():
            ns.sort()
        self._weights, self._adj = ws, adj
        self._vertices = tuple(sorted(ws))
        self._tree_count, self._parent = _components(self)
        if len(edges) != len(ws) - self._tree_count:
            _raise_edge_fault(ws, edges)
        self._integral = integral
        self._hash: int | None = None
        self._dp = self._stabilized = self._arrays = self._nodes = self._branches = None

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[VertexId, VertexId], ...]:
        """Sorted pairs (a, b), a < b, read off the sorted adjacency."""
        return tuple([(a, b) for a in self._vertices for b in self._adj[a] if a < b])

    def weight(self, v: VertexId) -> Fraction | int:
        try:
            return self._weights[v]
        except KeyError:
            raise GraphStructureError(f"unknown vertex {v!r}") from None

    def weights(self) -> dict[VertexId, Fraction | int]:
        return dict(self._weights)

    def neighbors(self, v: VertexId) -> tuple[VertexId, ...]:
        try:
            return tuple(self._adj[v])
        except KeyError:
            raise GraphStructureError(f"unknown vertex {v!r}") from None

    def degree(self, v: VertexId) -> int:
        return len(self.neighbors(v))

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._weights

    def has_edge(self, a: VertexId, b: VertexId) -> bool:
        return b in self._adj.get(a, ())

    def __contains__(self, v: object) -> bool:
        return v in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlumbingGraph):
            return NotImplemented
        return self._weights == other._weights and self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((tuple(sorted(self._weights.items())), self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"PlumbingGraph({len(self)} vertices, {len(self) - self._tree_count} edges)"

    # -- derived structure -------------------------------------------------

    def is_connected(self) -> bool:
        return self._tree_count <= 1

    def has_integer_weights(self) -> bool:
        return self._integral

    def component_vertex_sets(self) -> list[frozenset[VertexId]]:
        """Connected components as vertex sets, sorted by least member."""
        return [frozenset(tree) for tree in _trees(self)]


def _raise_edge_fault(ws: Mapping, edges: Sequence) -> None:
    """Raise the error of the first faulty edge, if any (``_edge_fault``)."""
    fault = _edge_fault(ws, edges)
    if fault is not None:
        raise GraphStructureError(fault[1])


def _edge_fault(ws: Mapping, edges: Sequence) -> tuple[int, str] | None:
    """The index and error message of the first faulty edge, checking each
    edge in turn for a loop, an undeclared end, a repeat and a cycle (by
    union-find), or None when the edges form a forest on ``ws``."""
    parent = {v: v for v in ws}

    def find(x: VertexId) -> VertexId:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    eset: set[tuple[VertexId, VertexId]] = set()
    for i, (a, b) in enumerate(edges):
        if a == b:
            return i, f"loop at vertex {a!r}"
        if a not in ws or b not in ws:
            missing = a if a not in ws else b
            return i, f"edge to undeclared vertex {missing!r}"
        e = _normalize_edge(a, b)
        if e in eset:
            return i, f"multi-edge between {a!r} and {b!r}"
        ra, rb = find(a), find(b)
        if ra == rb:
            return i, f"cycle detected through edge {a!r}-{b!r}"
        parent[ra] = rb
        eset.add(e)
    return None


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def parse_graph(text: str) -> PlumbingGraph:
    """Parse the line-oriented graph format; all errors carry line numbers.

    Text of the form ``serialize_graph`` writes, ``vertex <id> <integer>``
    lines and then ``edge <id> <id>`` lines, single spaces and every line
    ended by a newline, is matched by one regex and split once: ids, weights
    and edge ends are slices of the token list.  ``PlumbingGraph`` checks
    ids and the forest, as it is the one place that does; a repeated id
    shows as fewer weights than vertex lines.  Every other text, and
    grammar text turned down, is read by ``_parse_lines``, which checks
    each line as it reads it and so reports the first fault with its line.
    """
    if _GRAMMAR_RE.fullmatch(text):
        tokens = text.split()
        n = len(tokens) - 3 * tokens[::3].count("edge")  # the vertex lines' tokens
        ids = tokens[1:n:3]
        try:
            weights = dict(zip(ids, map(int, tokens[2:n:3])))
            if len(weights) == len(ids):
                return PlumbingGraph(weights, list(zip(tokens[n + 1::3], tokens[n + 2::3])))
        except ValueError:  # a GraphStructureError, or an int past the digit limit
            pass
    return _parse_lines(text)  # outside the handler: its error chains to none


def _parse_lines(text: str) -> PlumbingGraph:
    """``parse_graph`` line by line: each line is checked as it is read,
    so the first faulty line raises its ``ParseError``.  An edge that
    closes a cycle is reported, with its line, only when no line has any
    other fault."""
    weights: dict[VertexId, Fraction | int] = {}
    edges: list[tuple[VertexId, VertexId]] = []
    edge_lines: list[int] = []
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
            edge_lines.append(lineno)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    fault = _edge_fault(weights, edges)  # only a cycle is left to find
    if fault is not None:
        raise ParseError(fault[1], edge_lines[fault[0]])
    return PlumbingGraph(weights, edges)


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
    """Canonical text form: vertices sorted by id, then edges sorted, read
    in order off the sorted vertices and their sorted neighbours."""
    ws, adj = g._weights, g._adj
    lines = [f"vertex {v} {ws[v]}" for v in g._vertices]
    lines += [f"edge {a} {b}" for a in g._vertices for b in adj[a] if a < b]
    return "\n".join(lines) + "\n"


def fresh_ids(
    taken: PlumbingGraph | Mapping[VertexId, object], prefix: str, count: int
) -> list[VertexId]:
    """Deterministic ids ``<prefix>1, <prefix>2, ...`` not in ``taken``, a
    graph or a mapping keyed by id, skipping collisions."""
    out: list[VertexId] = []
    i = 1
    while len(out) < count:
        cand = f"{prefix}{i}"
        if cand not in taken:  # i only grows, so cand is new to out
            out.append(cand)
        i += 1
    return out


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def nodes(g: PlumbingGraph) -> tuple[VertexId, ...]:
    """Vertices of valency >= 3, sorted; stored on the graph."""
    if g._nodes is None:
        g._nodes = tuple(v for v in g._vertices if len(g._adj[v]) >= 3)
    return g._nodes


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


def _components(g: PlumbingGraph) -> tuple[int, dict]:
    """The number of trees of ``g`` and its parent map, vertex to parent,
    None at a root.  Each search starts at the least vertex not yet reached
    and walks breadth first, so the map's order is the rooted order:
    parents come first, each tree is contiguous and led by its root, and
    the trees come sorted by least vertex."""
    adj, parent, trees = g._adj, {}, 0
    for start in g._vertices:
        if start in parent:
            continue
        trees += 1
        parent[start] = None
        queue = [start]
        for u in queue:  # the list grows as it is read
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
    return trees, parent


def _trees(g: PlumbingGraph) -> list[list[VertexId]]:
    """The vertices of each tree of ``g``: the rooted order split at its
    roots, so the trees come sorted by least vertex."""
    trees: list[list[VertexId]] = []
    for v, p in g._parent.items():
        if p is None:
            trees.append([])
        trees[-1].append(v)
    return trees


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
    g: PlumbingGraph, root: VertexId, avoid: VertexId | None = None
) -> list[tuple[VertexId, VertexId | None]]:
    """(vertex, parent) pairs of the tree holding ``root``, rooted at
    ``root``, breadth first, so parents come first; ``root``'s parent is
    None.  The walk never enters ``avoid``: with it, the walk covers the
    component of g - avoid that holds ``root``, the root's side of a cut
    at (avoid, root) when the two are adjacent."""
    adj, walk = g._adj, [(root, None)]
    if root not in adj:
        raise GraphStructureError(f"unknown vertex {root!r}")
    for u, p in walk:  # the list grows as it is read
        walk += [(c, u) for c in adj[u] if c != p and c != avoid]
    return walk


def branch_counts(
    g: PlumbingGraph, marked: Container[VertexId]
) -> dict[VertexId, dict[VertexId, int]]:
    """For each vertex v and each neighbour u of v, in id order, the number
    of ``marked`` vertices in the component of g - v that holds u.  One
    fold up the graph's rooted order counts the marked vertices below each
    vertex: the branch of a child holds those below the child, and the
    branch of the parent the rest of the tree's marked vertices."""
    below = {v: int(v in marked) for v in g._weights}
    for v, p in reversed(g._parent.items()):
        if p is not None:
            below[p] += below[v]
    counts = {}
    for v, p in g._parent.items():  # a tree's vertices follow its root
        if p is None:
            total = below[v]
        counts[v] = {u: below[u] if u != p else total - below[v] for u in g._adj[v]}
    return counts


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
        kids = [codes[c] for c in g._adj[v] if c != p]
        if len(kids) > 1:
            kids.sort(key=_code_key)
        codes[v] = (g.weight(v), tuple(kids))
    return codes


def _is_centroid(sizes: Mapping[VertexId, int]) -> bool:
    """Whether a vertex whose branches hold ``sizes`` vertices is a centroid
    of its tree: no branch holds more than half the tree, which makes its
    heaviest branch the least of the tree's."""
    return 2 * max(sizes.values(), default=0) <= sum(sizes.values()) + 1


def _rooted_trees(g: PlumbingGraph) -> list[tuple[VertexId, dict[VertexId, Code]]]:
    """For each tree of ``g``, its centroid with the least rooted code (the
    least id on ties) and the codes of the subtrees under it; trees sorted
    by that code.  One ``branch_counts`` over the forest finds the
    centroids of every tree."""
    counts = branch_counts(g, g._weights)

    def key(rooted: tuple[VertexId, dict[VertexId, Code]]):
        return _code_key(rooted[1][rooted[0]])

    out = []
    for tree in _trees(g):
        cents = sorted(v for v in tree if _is_centroid(counts[v]))
        out.append(min([(c, _subtree_codes(g, c)) for c in cents], key=key))
    out.sort(key=key)
    return out


def canonical_code(g: PlumbingGraph) -> Code:
    """Isomorphism-invariant code: per tree, the minimum rooted code over
    its centroid(s); trees sorted.  Equal codes iff isomorphic."""
    return tuple(codes[root] for root, codes in _rooted_trees(g))


def is_isomorphic(
    g1: PlumbingGraph, g2: PlumbingGraph
) -> tuple[bool, dict[VertexId, VertexId] | None]:
    """Decorated-forest isomorphism plus a witness vertex map when true."""
    if len(g1) != len(g2) or g1._tree_count != g2._tree_count:
        return False, None
    mapping: dict[VertexId, VertexId] = {}
    for (r1, codes1), (r2, codes2) in zip(_rooted_trees(g1), _rooted_trees(g2)):
        if _compare_codes(codes1[r1], codes2[r2]):
            return False, None
        # match children in (code, id) order, depth first; neighbours come
        # sorted by id and the sort is stable
        stack = [(r1, None, r2, None)]
        while stack:
            v1, p1, v2, p2 = stack.pop()
            mapping[v1] = v2
            kids1 = [c for c in g1._adj[v1] if c != p1]
            kids2 = [c for c in g2._adj[v2] if c != p2]
            kids1.sort(key=lambda c: _code_key(codes1[c]))
            kids2.sort(key=lambda c: _code_key(codes2[c]))
            pairs = [(c1, v1, c2, v2) for c1, c2 in zip(kids1, kids2)]
            stack.extend(reversed(pairs))
    return True, mapping
