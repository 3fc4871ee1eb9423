"""Slopes, edge cutting, and machine-checkable decomposition certificates.

A rational slope ``r < 0`` attached at a vertex is realized combinatorially
by a string of vertices decorated with the terms of the negative continued
fraction

    r = [e_1, ..., e_s] = e_1 - 1/(e_2 - 1/(...)),   e_1 <= -1, e_i <= -2.

Cutting a tree along an edge e = (v, w) and filling both sides with the
dual slopes r and 1/r (r = -det(G_w - w)/det(G_w)) produces

    * G_w(r): determinant 0, negative semidefinite (first Betti number one
      on the manifold side), and
    * G_v(1/r): negative definite with det = det(G)/det(G_w - w) in the
      slope-decorated form (the string expansion realizes the reduced
      fraction, dividing by gcd(det(G_w), det(G_w - w)) instead),

which is the inductive engine behind the orderability / foliation
certificates built here.  ``lo_certificate`` constructs the recursive
witness for a non-rational graph, reducing the node count at every step
until a graph with at most one bad vertex remains; det-0 sides are
decomposed further into Seifert (star-shaped) leaves.

Each certificate tag has one claim table (``_TABLES``): a function that
takes a node's graph and stored edge and returns the node it proves, with
its ordered claims and the fields it carries (edge, slope, jump witness,
Seifert data) but no children, and the graphs its children must have.
The tables are the single statement of the certificate format.  The
builder records the node a table returns; ``check_certificate``
recomputes every table from the serialized graphs with lattice/Laufer
primitives only and trusts nothing the builder wrote.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd
from typing import NamedTuple

from .errors import GraphStructureError, InternalCheckError, PlumbingError
from .graph import (
    PlumbingGraph,
    VertexId,
    blow_up_edge,
    fresh_ids,
    is_minimal,
    minimize,
    nodes,
    parse_fraction,
    parse_graph,
    rooted_preorder,
    serialize_graph,
    subgraph,
)
from .lattice import (
    _det_definiteness,
    definiteness,
    determinant,
    is_negative_definite,
    root_dp,
    walk_verdict,
)
from .laufer import _least_bad, _vertex_jump, is_rational, stabilize
from .seifert import SeifertData, negative_cf, star_to_seifert

# ---------------------------------------------------------------------------
# Strings
# ---------------------------------------------------------------------------


def attach_string(
    g: PlumbingGraph, at: VertexId, r: Fraction | int
) -> PlumbingGraph:
    """Attach the string expansion of slope ``r`` by one edge at ``at``;
    the first term of the continued fraction sits next to ``at``."""
    terms = negative_cf(r).terms
    if not g.has_vertex(at):
        raise GraphStructureError(f"unknown vertex {at!r}")
    return _chain(g.weights(), g.edges, at, terms)


def _chain(ws: dict, edges, at: VertexId, weights) -> PlumbingGraph:
    """The graph of ``ws`` and ``edges`` with a chain of vertices of the
    given weights attached at ``at``, their ids fresh to ``ws``."""
    ids = fresh_ids(ws, "q", len(weights))
    ws.update(zip(ids, weights))
    return PlumbingGraph(ws, [*edges, *zip([at, *ids], ids)])


def _side(g: PlumbingGraph, walk, weights=()) -> PlumbingGraph:
    """The tree of ``g`` that ``walk`` covers (see ``rooted_preorder``),
    with a chain of the given weights attached at its root."""
    return _chain({u: g.weight(u) for u, _ in walk}, walk[1:], walk[0][0], weights)


# ---------------------------------------------------------------------------
# Cutting an edge and filling both sides
# ---------------------------------------------------------------------------


class CutResult:
    """A cut (see ``cut_and_fill``): the edge (v, w), the Fractions det_w,
    det_w_minus and r, and the two filled graphs.  The sides and the
    decorated graphs (each side with its slope as a single vertex) are
    built on first read, from the cut graph and the walk of each side.  A
    decorated side's (det, definiteness) is one ``walk_verdict`` of the
    side with no graph built, 1/r folded in at v as (det_w, det_w_minus)
    and r at w as (det_w_minus, det_w): folded in ``int`` on an integer
    graph, with the determinant returned as a ``Fraction``."""

    def __init__(self, g, edge, walks, dp_w, r, filled_v, filled_w):
        self._g, (self._walk_v, self._walk_w), self._dp_w = g, walks, dp_w
        self.edge, self.det_w, self.det_w_minus, self.r = edge, *map(Fraction, dp_w), r
        self.filled_v, self.filled_w = filled_v, filled_w

    @cached_property
    def side_v(self) -> PlumbingGraph:
        return _side(self._g, self._walk_v)

    @cached_property
    def side_w(self) -> PlumbingGraph:
        return _side(self._g, self._walk_w)

    @cached_property
    def decorated_v(self) -> PlumbingGraph:
        return _side(self._g, self._walk_v, [1 / self.r])

    @cached_property
    def decorated_w(self) -> PlumbingGraph:
        return _side(self._g, self._walk_w, [self.r])

    @cached_property
    def decorated_v_verdict(self) -> tuple:
        return walk_verdict(self._g, self._walk_v, (self.edge[0], *self._dp_w))

    @cached_property
    def decorated_w_verdict(self) -> tuple:
        return walk_verdict(self._g, self._walk_w, (self.edge[1], *self._dp_w[::-1]))


class Claim(NamedTuple):
    kind: str
    expected: object
    got: object


def _cut(g: PlumbingGraph, v: VertexId, w: VertexId) -> CutResult:
    """Split ``g`` at the edge (v, w); fill the w-side with the string of
    r = -det(G_w - w)/det(G_w) at w and the v-side with that of 1/r at v.
    det(G_w) and det(G_w - w) are the D and P of w in one (D, P) walk of
    the w-side rooted at w.  Only the two filled graphs are built, straight
    from the weights and edges of ``g`` on each side plus the string; the
    other graphs of the cut are built when read."""
    walk_v, walk_w = rooted_preorder(g, v, w), rooted_preorder(g, w, v)
    dp_w = det_w, det_w_minus = root_dp(g, walk_w)
    if det_w <= 0 or det_w_minus <= 0:
        raise InternalCheckError("side determinants must be positive")
    r = -Fraction(det_w_minus) / det_w
    filled_v = _side(g, walk_v, negative_cf(1 / r).terms)
    filled_w = _side(g, walk_w, negative_cf(r).terms)
    return CutResult(g, (v, w), (walk_v, walk_w), dp_w, r, filled_v, filled_w)


def _cut_claims(g: PlumbingGraph, cut: CutResult) -> list[Claim]:
    """The identities of a cut of a negative definite graph, as listed in
    ``cut_and_fill``."""
    det_g = determinant(g)
    claims = [
        Claim("filled_w_det_zero", True, determinant(cut.filled_w) == 0),
        Claim(
            "filled_w_semidefinite", True,
            definiteness(cut.filled_w).is_negative_semidefinite,
        ),
        Claim("filled_v_negative_definite", True, is_negative_definite(cut.filled_v)),
        Claim("decorated_v_det", det_g / cut.det_w_minus, cut.decorated_v_verdict[0]),
    ]
    if g.has_integer_weights():
        reduction = gcd(int(cut.det_w), int(cut.det_w_minus))
        claims.append(Claim("filled_v_det", det_g / reduction, determinant(cut.filled_v)))
    return claims


def cut_and_fill(g: PlumbingGraph, e: tuple[VertexId, VertexId]) -> CutResult:
    """Cut ``g`` along e = (v, w) and fill with the dual slopes.

    The w-side gets r = -det(G_w - w)/det(G_w) (determinant drops to 0),
    the v-side gets 1/r (stays negative definite).  The determinant
    identity det(G_v(1/r)) = det(G)/det(G_w - w) holds exactly for the
    slope-decorated graph (one rational vertex); after string expansion
    the determinant is det(G)/gcd(det(G_w), det(G_w - w)) because the
    string realizes the reduced fraction.  Every identity is verified
    exactly before returning, the decorated graphs' by folds (``CutResult``);
    a failure is an implementation bug, never bad input.
    """
    v, w = e
    if not g.has_edge(v, w):
        raise GraphStructureError(f"edge {v!r}-{w!r} not in graph")
    if not g.is_connected():
        raise GraphStructureError("cut_and_fill requires a connected graph")
    if not is_negative_definite(g):
        raise GraphStructureError("cut_and_fill requires a negative definite graph")
    cut = _cut(g, v, w)
    defn_v = cut.decorated_v_verdict[1]
    _check_claims([
        *_cut_claims(g, cut),
        Claim("decorated_w_det_zero", True, cut.decorated_w_verdict[0] == 0),
        Claim("decorated_v_negative_definite", True, defn_v.is_negative_definite),
    ])
    return cut


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

TAG_BASE_M1 = "BaseM1"
TAG_CASE1 = "Case1"
TAG_CASE2 = "Case2"
TAG_SEMIDEF_CUT = "SemidefCut"
TAG_SEMIDEF_LEAF = "SemidefLeaf"


class JumpInfo(NamedTuple):
    """Witness of the jump localization used to pick the cut edge: after
    stabilizing the cut vertex, the canonical Laufer run jumps at the
    recorded step inside the recorded component of g - v."""

    stabilized_weight: Fraction
    step: int
    vertex: VertexId
    value: int
    component: tuple[VertexId, ...]


class CertificateNode(NamedTuple):
    graph: PlumbingGraph
    tag: str
    claims: tuple[Claim, ...]
    children: tuple["CertificateNode", ...] = ()
    edge: tuple[VertexId, VertexId] | None = None
    r: Fraction | None = None
    jump: JumpInfo | None = None
    seifert: object | None = None  # SeifertData when the leaf is a true star


class CheckResult(NamedTuple):
    ok: bool
    path: str | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Claim tables: what each tag claims, stated once for builder and checker
# ---------------------------------------------------------------------------

# A table returns (node, children): the node it proves, with no children,
# and for each child the graph it must have with the tags it may carry.  It
# raises ``InternalCheckError`` when the node's structure is invalid: a bug
# in the builder, a rejected node in the checker.

_DEFINITE_TAGS = (TAG_BASE_M1, TAG_CASE1, TAG_CASE2)
_SEMIDEF_TAGS = (TAG_SEMIDEF_CUT, TAG_SEMIDEF_LEAF)


def _holds(claims) -> bool:
    return all(c.expected == c.got for c in claims)


def _check_claims(claims) -> None:
    for c in claims:
        if c.expected != c.got:
            raise InternalCheckError(
                f"claim {c.kind!r} fails: expected {c.expected}, got {c.got}"
            )


def _definite_claims(g: PlumbingGraph) -> list[Claim]:
    """The claims opening every node over a negative definite graph."""
    det, defn = _det_definiteness(g)
    return [
        Claim("connected", True, g.is_connected()),
        Claim("det", det, det),
        Claim("negative_definite", True, defn.is_negative_definite),
        Claim("not_rational", True, not is_rational(g).rational),
    ]


def _semidefinite_claims(g: PlumbingGraph) -> list[Claim]:
    """The claims opening every node over a det-0 semidefinite graph."""
    det, defn = _det_definiteness(g)
    return [
        Claim("connected", True, g.is_connected()),
        Claim("det", det, det),
        Claim("det_zero", True, det == 0),
        Claim("negative_semidefinite", True, defn.is_negative_semidefinite),
    ]


def _base_m1(g: PlumbingGraph, edge):
    """Leaf: a non-rational graph with at most one bad vertex, found by the
    first two levels of ``laufer``'s prefix tree: only a vertex of S(empty),
    those the plain run steps up to its first jump, can be bad alone."""
    claims = (*_definite_claims(g), Claim("m_le_1", True, _least_bad(g, 1) is not None))
    return CertificateNode(g, TAG_BASE_M1, claims), ()


def _node_counts(g: PlumbingGraph) -> tuple[dict, dict, dict]:
    """(below, parent, up) by vertex: the nodes in its subtree of the rooted
    order, its parent (``g._parent``) and its tree's other nodes, from one
    fold stored on the graph."""
    if g._branches is None:
        below, up = {v: int(len(ns) >= 3) for v, ns in g._adj.items()}, {}
        parent = g._parent
        for v, p in reversed(parent.items()):
            if p is not None:
                below[p] += below[v]
        for v, p in parent.items():
            up[v] = 0 if p is None else up[p] + below[p] - below[v]
        g._branches = below, parent, up
    return g._branches


def _cut_vertex(g: PlumbingGraph, v: VertexId):
    """(first jump, jumped component, valid targets w) for cutting at v, or
    None when fewer than two components of g - v hold a node (below[u] for
    a child u of v and up[v] for its parent, see ``_node_counts``).

    When m >= 2 the stabilized graph stays non-rational and its canonical
    Laufer run jumps inside one component of g - v; a valid target is a
    neighbour of v in another component that holds a node.  The jump is
    None when the stabilized graph is rational.  It is read by
    ``laufer._vertex_jump``, with no graph built.
    """
    below, parent, up = _node_counts(g)
    branches = [u for u in g._adj.get(v, ()) if (below[u] if parent[u] == v else up[v])]
    if len(branches) < 2:
        return None
    jump = _vertex_jump(g, v)
    jumped = {u for u, _ in rooted_preorder(g, jump.vertex, v)} if jump else set()
    return jump, jumped, tuple(w for w in branches if w not in jumped)


def _case1(g: PlumbingGraph, edge):
    """Cut at (v, w) chosen by ``_cut_vertex``: the 1/r-filled v-side,
    minimized, recurses with fewer nodes; the r-filled w-side is det-0."""
    v, w = edge
    claims = _definite_claims(g)
    found = _cut_vertex(g, v)
    if found is None:
        raise InternalCheckError("cut vertex does not separate two node components")
    j, jumped, targets = found
    claims.append(Claim("stabilized_not_rational", True, j is not None))
    _check_claims(claims)
    if w not in targets:
        raise InternalCheckError("cut edge leads to the jump side or to no node")
    down = stabilize(g, [v])
    jump = JumpInfo(
        Fraction(down.weight(v)), j.step, j.vertex, j.value, tuple(sorted(jumped))
    )
    on_jump = subgraph(down, jumped | {v})
    cut = _cut(g, v, w)
    claims += [
        Claim("jump_component_not_rational", True, not is_rational(on_jump).rational),
        Claim("r", cut.r, cut.r),
        *_cut_claims(g, cut),
    ]
    _check_claims(claims)
    child = minimize(cut.filled_v)
    claims += [
        Claim("child_not_rational", True, not is_rational(child).rational),
        Claim("node_count_decreases", True, len(nodes(child)) < len(nodes(g))),
    ]
    node = CertificateNode(g, TAG_CASE1, tuple(claims), (), (v, w), cut.r, jump)
    return node, ((child, _DEFINITE_TAGS), (cut.filled_w, _SEMIDEF_TAGS))


def _case2(g: PlumbingGraph, edge):
    """No valid cut vertex and two adjacent nodes: blow up the node edge;
    the new (-1)-vertex is the child's forced cut vertex."""
    claims = _definite_claims(g)
    ns = nodes(g)
    claims.append(
        Claim("two_adjacent_nodes", True, len(ns) == 2 and g.has_edge(*ns))
    )
    _check_claims(claims)
    blown = blow_up_edge(g, ns)
    claims.append(Claim("child_not_rational", True, not is_rational(blown).rational))
    node = CertificateNode(g, TAG_CASE2, tuple(claims), edge=ns)
    return node, ((blown, (TAG_BASE_M1, TAG_CASE1)),)


def _node_separating_edges(g: PlumbingGraph) -> set[tuple[VertexId, VertexId]]:
    """The edges e, as in ``g.edges``, with a node in every component of
    g - e: the edges (v, p) of the rooted order with nodes below and above
    v (see ``_node_counts``), and none when some tree of g holds no node,
    read at its root."""
    below, parent, up = _node_counts(g)
    if not all(below[v] for v, p in parent.items() if p is None):
        return set()
    return {(min(v, p), max(v, p)) for v, p in parent.items() if below[v] and up[v]}


def _semidef_cut(g: PlumbingGraph, edge):
    """Cut a det-0 graph along an edge with nodes on both sides; both fills
    stay det-0 and semidefinite with fewer nodes."""
    claims = _semidefinite_claims(g)
    v, w = edge
    if not g.has_edge(v, w):
        raise GraphStructureError(f"edge {v!r}-{w!r} not in graph")
    if (min(v, w), max(v, w)) not in _node_separating_edges(g):
        raise InternalCheckError("cut edge does not separate two nodes")
    cut = _cut(g, v, w)
    count = len(nodes(g))
    claims.append(Claim("r", cut.r, cut.r))
    for name, filled in (("v", cut.filled_v), ("w", cut.filled_w)):
        claims += [
            Claim(f"filled_{name}_det_zero", True, determinant(filled) == 0),
            Claim(
                f"filled_{name}_semidefinite", True,
                definiteness(filled).is_negative_semidefinite,
            ),
            Claim(f"filled_{name}_fewer_nodes", True, len(nodes(filled)) < count),
        ]
    node = CertificateNode(g, TAG_SEMIDEF_CUT, tuple(claims), (), (v, w), cut.r)
    return node, ((cut.filled_v, _SEMIDEF_TAGS), (cut.filled_w, _SEMIDEF_TAGS))


def _star_data(g: PlumbingGraph):
    try:
        return star_to_seifert(minimize(g))
    except PlumbingError:
        return None


def _semidef_leaf(g: PlumbingGraph, edge):
    """Leaf: a det-0 semidefinite graph with at most one node, carrying its
    Seifert invariants when it minimizes to a true star.  They are read
    only when the claims hold: the builder tries this table on every det-0
    graph, and the checker reports a failing claim first."""
    claims = (*_semidefinite_claims(g), Claim("nodes_le_1", True, len(nodes(g)) <= 1))
    seifert = _star_data(g) if _holds(claims) else None
    return CertificateNode(g, TAG_SEMIDEF_LEAF, claims, seifert=seifert), ()


_TABLES = {
    TAG_BASE_M1: _base_m1,
    TAG_CASE1: _case1,
    TAG_CASE2: _case2,
    TAG_SEMIDEF_CUT: _semidef_cut,
    TAG_SEMIDEF_LEAF: _semidef_leaf,
}


# ---------------------------------------------------------------------------
# Building certificates
# ---------------------------------------------------------------------------


def _build(node: CertificateNode, children, forced_child=None) -> CertificateNode:
    """Record the node a table returns with its ``children`` built."""
    _check_claims(node.claims)
    return node._replace(children=tuple(
        semidef_decompose(graph) if tags == _SEMIDEF_TAGS
        else _certify(graph, forced_child)
        for graph, tags in children
    ))


def lo_certificate(g: PlumbingGraph) -> CertificateNode:
    """Recursive witness that a non-rational graph stays non-rational under
    the node-reducing cut-and-fill induction, bottoming out in graphs with
    at most one bad vertex (plus det-0 Seifert decompositions on the side).

    Requires a connected, negative definite, minimal, non-rational graph.
    """
    if not g.is_connected():
        raise GraphStructureError("certificate requires a connected graph")
    if not g.has_integer_weights():
        raise GraphStructureError("certificate requires integer weights")
    if not is_negative_definite(g):
        raise GraphStructureError("certificate requires a negative definite graph")
    if not is_minimal(g):
        raise GraphStructureError("minimize the graph before certifying")
    if is_rational(g).rational:
        raise GraphStructureError("graph is rational; nothing to certify")
    return _certify(g)


def _certify(g: PlumbingGraph, forced: VertexId | None = None) -> CertificateNode:
    if forced is None or _vertex_jump(g, forced) is None:
        base = _base_m1(g, None)
        # a bad forced vertex alone gives m <= 1; _build re-verifies it
        if forced is not None or _holds(base[0].claims):
            return _build(*base)
    # Case1 at the lexicographically least valid cut edge, see _cut_vertex
    for v in (forced,) if forced is not None else g.vertices:
        found = _cut_vertex(g, v)
        if found is None:
            continue
        jump, _, targets = found
        if jump is None:
            raise InternalCheckError(
                f"stabilizing {v!r} made the graph rational although m >= 2"
            )
        if targets:
            return _build(*_case1(g, (v, targets[0])))
    if forced is not None:
        raise InternalCheckError("forced blow-up vertex admitted no valid cut")
    node, children = _case2(g, None)
    ((blown, _),) = children
    (u,) = set(blown.vertices) - set(g.vertices)
    return _build(node, children, forced_child=u)


def semidef_decompose(g0: PlumbingGraph) -> CertificateNode:
    """Decompose a connected det-0 negative-semidefinite graph into
    star-shaped (at most one node) det-0 leaves by cutting along edges
    separating nodes and filling both sides with the dual slopes; both
    fills stay semidefinite with determinant 0."""
    if not g0.is_connected():
        raise GraphStructureError("semidefinite decomposition requires connectivity")
    if determinant(g0) != 0:
        raise GraphStructureError("semidefinite decomposition requires det = 0")
    if not definiteness(g0).is_negative_semidefinite:
        raise GraphStructureError(
            "semidefinite decomposition requires a negative semidefinite graph"
        )
    leaf = _semidef_leaf(g0, None)
    if _holds(leaf[0].claims):
        return _build(*leaf)
    edge = min(_node_separating_edges(g0), default=None)
    if edge is None:
        raise InternalCheckError("no edge separates two nodes of a 2-node tree")
    return _build(*_semidef_cut(g0, edge))


# ---------------------------------------------------------------------------
# Independent verification
# ---------------------------------------------------------------------------


def check_certificate(cert: CertificateNode) -> CheckResult:
    """Re-verify every claim of a certificate from scratch.

    Each node's claim table is recomputed from its graph and stored edge,
    which gives the node it proves: determinants, definiteness, rationality,
    the slope, the jump witness and the Seifert data, and the child graphs.
    A node is rejected when a recomputed claim fails, when a stored claim
    or field differs from the recomputed node's, or when a child's graph or
    tag does not match.  The first failing node's path is reported.  Jump
    witnesses come from the canonical (smallest-id tie-break) Laufer run,
    which is the run this certificate format prescribes.

    A stored claim matches a recomputed one when the two are equal and each
    value is a ``bool`` in both or in neither (see ``_check_node``), which
    is what equal JSON forms would say, with no value written out as text.
    """
    try:
        return _check_node(cert, "root")
    except Exception as exc:  # malformed certificates must not crash the checker
        return CheckResult(False, "root", f"exception: {exc}")


def _fail(path: str, reason: str) -> CheckResult:
    return CheckResult(False, path, reason)


def _check_node(
    node: CertificateNode, path: str, graph: PlumbingGraph | None = None
) -> CheckResult:
    """Check ``node``; ``graph`` is the parent's recomputed child graph, equal
    to ``node.graph``, whose facts the parent's table has computed already.

    Claim values are ``bool``s and numbers (``int`` or ``Fraction``), as
    the tables compute them and ``certificate_from_json`` reads them.  Two
    such values have equal JSON forms (``_value_to_json``) exactly when they
    are equal and both or neither is a ``bool``, as a number is written as
    the canonical ``str`` of its value and ``==`` alone takes ``True`` for
    ``1`` (True == 1 == Fraction(1)).  So claims are compared that way, and
    no number is written out as text, which ``str`` of an ``int`` refuses
    past its digit limit."""
    table_of = _TABLES.get(node.tag) if isinstance(node.tag, str) else None
    if table_of is None:
        return _fail(path, f"unknown tag {node.tag!r}")
    try:
        fresh, children = table_of(node.graph if graph is None else graph, node.edge)
        _check_claims(fresh.claims)
    except InternalCheckError as exc:
        return _fail(path, str(exc))
    except Exception as exc:
        return _fail(path, f"exception: {exc}")
    for stored, claim in zip_longest(node.claims, fresh.claims):
        if stored != claim or (
            (type(stored.expected) is bool) is not (type(claim.expected) is bool)
            or (type(stored.got) is bool) is not (type(claim.got) is bool)
        ):
            return _fail(path, f"stored claim {stored} != recomputed {claim}")
    # the fields after graph, tag, claims and children: edge, r, jump, seifert
    for name, stored, value in zip(node._fields[4:], node[4:], fresh[4:]):
        if stored != value:
            return _fail(path, f"stored {name} {stored} != recomputed {value}")
    if len(node.children) != len(children):
        return _fail(path, f"{node.tag} node needs {len(children)} children")
    for i, (child, (want, tags)) in enumerate(zip(node.children, children)):
        if child.graph != want:
            return _fail(path, f"children[{i}] graph differs from the recomputed one")
        if child.tag not in tags:
            return _fail(path, f"children[{i}] of a {node.tag} node has tag {child.tag!r}")
    for i, (child, (want, _)) in enumerate(zip(node.children, children)):
        res = _check_node(child, f"{path}.children[{i}]", want)
        if not res:
            return res
    return CheckResult(True)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def _value_to_json(v):
    return v if isinstance(v, bool) else str(v)


def _claim_to_json(c: Claim) -> dict:
    return {
        "kind": c.kind,
        "expected": _value_to_json(c.expected),
        "got": _value_to_json(c.got),
    }


def _value_from_json(v):
    return v if isinstance(v, bool) else parse_fraction(v)


def _checked(v, kind: type):
    """``v`` if its JSON type is ``kind``: true is not an int here."""
    if type(v) is not kind:
        raise PlumbingError(f"expected a JSON {kind.__name__}, got {v!r}")
    return v


def certificate_to_json(node: CertificateNode) -> dict:
    out: dict = {
        "graph": serialize_graph(node.graph),
        "tag": node.tag,
        "claims": [_claim_to_json(c) for c in node.claims],
        "children": [certificate_to_json(c) for c in node.children],
    }
    if node.edge is not None:
        out["edge"] = list(node.edge)
    if node.r is not None:
        out["r"] = str(node.r)
    if node.jump is not None:
        out["jump"] = {
            "stabilized_weight": str(node.jump.stabilized_weight),
            "step": node.jump.step,
            "vertex": node.jump.vertex,
            "value": node.jump.value,
            "component": list(node.jump.component),
        }
    if node.seifert is not None:
        out["seifert"] = {
            "e0": node.seifert.e0,
            "legs": [list(leg) for leg in node.seifert.legs],
        }
    return out


def certificate_from_json(data) -> CertificateNode:
    """Rebuild a certificate from its JSON form.  A missing key or a value
    of the wrong shape raises ``PlumbingError``: numbers must be written as
    ``certificate_to_json`` writes them, integers as JSON integers and
    rationals as "p/q" strings."""
    try:
        return _node_from_json(data)
    except PlumbingError:
        raise
    except KeyError as exc:
        raise PlumbingError(f"certificate node lacks the key {exc}") from None
    except (TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise PlumbingError(f"malformed certificate: {exc}") from None


def _node_from_json(data) -> CertificateNode:
    if not isinstance(data, dict):
        raise PlumbingError("certificate node must be a JSON object")
    jump = None
    if "jump" in data:
        j = data["jump"]
        jump = JumpInfo(
            parse_fraction(j["stabilized_weight"]),
            _checked(j["step"], int),
            j["vertex"],
            _checked(j["value"], int),
            tuple(_checked(j["component"], list)),
        )
    seifert = None
    if "seifert" in data:
        s = data["seifert"]
        seifert = SeifertData(
            _checked(s["e0"], int),
            tuple(
                tuple(_checked(x, int) for x in _checked(leg, list)) for leg in s["legs"]
            ),
        )
    return CertificateNode(
        graph=parse_graph(data["graph"]),
        tag=data["tag"],
        claims=tuple(
            Claim(
                c["kind"],
                _value_from_json(c["expected"]),
                _value_from_json(c["got"]),
            )
            for c in data["claims"]
        ),
        children=tuple(_node_from_json(c) for c in data["children"]),
        edge=tuple(_checked(data["edge"], list)) if "edge" in data else None,
        r=parse_fraction(data["r"]) if "r" in data else None,
        jump=jump,
        seifert=seifert,
    )
