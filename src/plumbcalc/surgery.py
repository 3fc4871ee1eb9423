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
takes a node's graph and stored edge and returns the node's ordered
claims, the fields it carries (edge, slope, jump witness, Seifert data)
and the graphs its children must have.  The tables are the single
statement of the certificate format.  The builder records what a table
returns; ``check_certificate`` recomputes every table from the serialized
graphs with lattice/Laufer primitives only and trusts nothing the builder
wrote.
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
    delete,
    fresh_ids,
    is_minimal,
    minimize,
    nodes,
    parse_fraction,
    parse_graph,
    serialize_graph,
    subgraph,
)
from .lattice import _det_definiteness, definiteness, determinant, is_negative_definite
from .laufer import _checked_bad_set, _verdict, is_bad_set, is_rational, stabilize
from .seifert import SeifertData, negative_cf, star_to_seifert

# ---------------------------------------------------------------------------
# Strings
# ---------------------------------------------------------------------------


def attach_string(
    g: PlumbingGraph, at: VertexId, r: Fraction | int
) -> PlumbingGraph:
    """Attach the string expansion of slope ``r`` by one edge at ``at``;
    the first term of the continued fraction sits next to ``at``."""
    return _attach_chain(g, at, negative_cf(r).terms)


def _attach_chain(g: PlumbingGraph, at: VertexId, weights) -> PlumbingGraph:
    """Attach a chain of fresh vertices with the given weights at ``at``."""
    if not g.has_vertex(at):
        raise GraphStructureError(f"unknown vertex {at!r}")
    ids = fresh_ids(g, "q", len(weights))
    ws = g.weights()
    ws.update(zip(ids, weights))
    return PlumbingGraph(ws, list(g.edges) + list(zip([at, *ids], ids)))


# ---------------------------------------------------------------------------
# Cutting an edge and filling both sides
# ---------------------------------------------------------------------------


class CutResult:
    """A cut (see ``cut_and_fill``): the two sides, the edge (v, w), the
    Fractions det_w, det_w_minus and r, and the two filled graphs.  The
    decorated graphs, each side with its slope as a single vertex, are
    built on first read."""

    def __init__(self, side_v, side_w, edge, det_w, det_w_minus, r, filled_v, filled_w):
        self.side_v, self.side_w, self.edge = side_v, side_w, edge
        self.det_w, self.det_w_minus, self.r = det_w, det_w_minus, r
        self.filled_v, self.filled_w = filled_v, filled_w

    @cached_property
    def decorated_v(self) -> PlumbingGraph:
        return _attach_chain(self.side_v, self.edge[0], [1 / self.r])

    @cached_property
    def decorated_w(self) -> PlumbingGraph:
        return _attach_chain(self.side_w, self.edge[1], [self.r])


class Claim(NamedTuple):
    kind: str
    expected: object
    got: object


def _branch(g: PlumbingGraph, w: VertexId, v: VertexId) -> set[VertexId]:
    """The vertices a walk from ``w`` reaches without entering ``v``: the
    component of g - v that holds ``w``, the w-side of a cut at (v, w)."""
    seen, stack = {v, w}, [w]
    while stack:
        new = [u for u in g.neighbors(stack.pop()) if u not in seen]
        seen.update(new)
        stack += new
    return seen - {v}


def _cut(g: PlumbingGraph, v: VertexId, w: VertexId) -> CutResult:
    """Split ``g`` at the edge (v, w); fill the w-side with the string of
    r = -det(G_w - w)/det(G_w) at w and the v-side with that of 1/r at v."""
    in_w = _branch(g, w, v)
    side_w = subgraph(g, in_w)
    side_v = subgraph(g, next(c for c in g.component_vertex_sets() if v in c) - in_w)
    det_w = determinant(side_w)
    det_w_minus = determinant(delete(side_w, vertices=[w]))
    if det_w <= 0 or det_w_minus <= 0:
        raise InternalCheckError("side determinants must be positive")
    r = -det_w_minus / det_w
    return CutResult(
        side_v, side_w, (v, w), det_w, det_w_minus, r,
        attach_string(side_v, v, 1 / r), attach_string(side_w, w, r),
    )


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
        Claim("decorated_v_det", det_g / cut.det_w_minus, determinant(cut.decorated_v)),
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
    string realizes the reduced fraction.  Both forms are kept and every
    identity is verified exactly before returning; a failure is an
    implementation bug, never bad input.
    """
    v, w = e
    if not g.has_edge(v, w):
        raise GraphStructureError(f"edge {v!r}-{w!r} not in graph")
    if not g.is_connected():
        raise GraphStructureError("cut_and_fill requires a connected graph")
    if not is_negative_definite(g):
        raise GraphStructureError("cut_and_fill requires a negative definite graph")
    cut = _cut(g, v, w)
    _check_claims([
        *_cut_claims(g, cut),
        Claim("decorated_w_det_zero", True, determinant(cut.decorated_w) == 0),
        Claim("decorated_v_negative_definite", True, is_negative_definite(cut.decorated_v)),
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

_DEFINITE_TAGS = (TAG_BASE_M1, TAG_CASE1, TAG_CASE2)
_SEMIDEF_TAGS = (TAG_SEMIDEF_CUT, TAG_SEMIDEF_LEAF)


class _Table(NamedTuple):
    """A node's ordered claims, the fields it carries, and for each child
    the graph it must have with the tags it may carry.  A table raises
    ``InternalCheckError`` when the node's structure is invalid: a bug in
    the builder, a rejected node in the checker."""

    claims: tuple[Claim, ...]
    children: tuple[tuple[PlumbingGraph, tuple[str, ...]], ...] = ()
    edge: tuple[VertexId, VertexId] | None = None
    r: Fraction | None = None
    jump: JumpInfo | None = None
    seifert: object | None = None


def _holds(claims) -> bool:
    return all(c.expected == c.got for c in claims)


def _check_claims(claims) -> None:
    for c in claims:
        if c.expected != c.got:
            raise InternalCheckError(
                f"claim {c.kind!r} fails: expected {c.expected}, got {c.got}"
            )


def _m_le_1(g: PlumbingGraph) -> bool:
    """m <= 1: a single vertex is a bad set (every vertex of a rational
    graph is one, as lowering weights keeps a graph rational).

    So this equals ``min_bad(g)[0] <= 1`` at n Laufer runs or fewer.  Nodes
    go first, as they are the likely bad vertices.
    """
    return any(
        is_bad_set(g, {v}) for v in sorted(g.vertices, key=lambda v: g.degree(v) < 3)
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


def _base_m1(g: PlumbingGraph, edge) -> _Table:
    """Leaf: a non-rational graph with at most one bad vertex."""
    return _Table((*_definite_claims(g), Claim("m_le_1", True, _m_le_1(g))))


def _node_branches(g: PlumbingGraph) -> dict[VertexId, tuple[VertexId, ...]]:
    """For each vertex v, the neighbours of v whose component of g - v holds
    a node, in id order.  They are read from the count of nodes below each
    vertex of the graph's rooted order: the branch of a child holds the
    nodes below the child, and the branch of the parent holds the rest of
    the tree's nodes.  A forest's other trees are not listed."""
    below = {v: g.degree(v) >= 3 for v in g.vertices}
    for v, p in reversed(g._order):
        if p is not None:
            below[p] += below[v]
    table = {}
    for v, p in g._order:  # a tree's pairs follow its root's
        if p is None:
            total = below[v]
        up = total - below[v]
        table[v] = tuple(u for u in g.neighbors(v) if (below[u] if u != p else up))
    return table


def _cut_vertex(g: PlumbingGraph, v: VertexId, branches):
    """(first jump, jumped component, valid targets w) for cutting at v, or
    None when fewer than two components of g - v hold a node (``branches``
    is ``_node_branches(g)``).

    When m >= 2 the stabilized graph stays non-rational and its canonical
    Laufer run jumps inside one component of g - v; a valid target is a
    neighbour of v in another component that holds a node.  The jump is
    None when the stabilized graph is rational.  It is read from the frozen
    run on g, stopped at the jump, so no graph is built.
    """
    if len(branches.get(v, ())) < 2:
        return None
    jump = _verdict(g, _checked_bad_set(g, [v])).jump
    jumped = _branch(g, jump.vertex, v) if jump else set()
    return jump, jumped, tuple(w for w in branches[v] if w not in jumped)


def _case1(g: PlumbingGraph, edge) -> _Table:
    """Cut at (v, w) chosen by ``_cut_vertex``: the 1/r-filled v-side,
    minimized, recurses with fewer nodes; the r-filled w-side is det-0."""
    v, w = edge
    claims = _definite_claims(g)
    found = _cut_vertex(g, v, _node_branches(g))
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
    return _Table(
        tuple(claims),
        ((child, _DEFINITE_TAGS), (cut.filled_w, _SEMIDEF_TAGS)),
        edge=(v, w), r=cut.r, jump=jump,
    )


def _case2(g: PlumbingGraph, edge) -> _Table:
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
    return _Table(tuple(claims), ((blown, (TAG_BASE_M1, TAG_CASE1)),), edge=ns)


def _node_separating_edges(g: PlumbingGraph) -> set[tuple[VertexId, VertexId]]:
    """The edges e, as in ``g.edges``, with a node in every component of
    g - e: those whose two ends list each other in ``_node_branches``, and
    none when some component of g holds no node."""
    gnodes = set(nodes(g))
    if not all(c & gnodes for c in g.component_vertex_sets()):
        return set()
    table = _node_branches(g)
    return {(a, b) for a, b in g.edges if b in table[a] and a in table[b]}


def _semidef_cut(g: PlumbingGraph, edge) -> _Table:
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
    return _Table(
        tuple(claims),
        ((cut.filled_v, _SEMIDEF_TAGS), (cut.filled_w, _SEMIDEF_TAGS)),
        edge=(v, w), r=cut.r,
    )


def _star_data(g: PlumbingGraph):
    try:
        return star_to_seifert(minimize(g))
    except PlumbingError:
        return None


def _semidef_leaf(g: PlumbingGraph, edge) -> _Table:
    """Leaf: a det-0 semidefinite graph with at most one node, carrying its
    Seifert invariants when it minimizes to a true star."""
    claims = (*_semidefinite_claims(g), Claim("nodes_le_1", True, len(nodes(g)) <= 1))
    return _Table(claims, seifert=_star_data(g))


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


def _build(
    g: PlumbingGraph, tag: str, table: _Table, forced_child: VertexId | None = None
) -> CertificateNode:
    """Record a node from its table, then build its children."""
    _check_claims(table.claims)
    children = tuple(
        semidef_decompose(graph) if tags == _SEMIDEF_TAGS
        else _certify(graph, forced_child)
        for graph, tags in table.children
    )
    return CertificateNode(
        g, tag, table.claims, children, table.edge, table.r, table.jump, table.seifert
    )


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
    if forced is None or is_bad_set(g, {forced}):
        base = _base_m1(g, None)
        # a bad forced vertex alone gives m <= 1; _build re-verifies it
        if forced is not None or _holds(base.claims):
            return _build(g, TAG_BASE_M1, base)
    # Case1 at the lexicographically least valid cut edge, see _cut_vertex
    branches = _node_branches(g)
    for v in (forced,) if forced is not None else g.vertices:
        found = _cut_vertex(g, v, branches)
        if found is None:
            continue
        jump, _, targets = found
        if jump is None:
            raise InternalCheckError(
                f"stabilizing {v!r} made the graph rational although m >= 2"
            )
        if targets:
            return _build(g, TAG_CASE1, _case1(g, (v, targets[0])))
    if forced is not None:
        raise InternalCheckError("forced blow-up vertex admitted no valid cut")
    case2 = _case2(g, None)
    ((blown, _),) = case2.children
    (u,) = set(blown.vertices) - set(g.vertices)
    return _build(g, TAG_CASE2, case2, forced_child=u)


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
    if _holds(leaf.claims):
        return _build(g0, TAG_SEMIDEF_LEAF, leaf)
    edge = min(_node_separating_edges(g0), default=None)
    if edge is None:
        raise InternalCheckError("no edge separates two nodes of a 2-node tree")
    return _build(g0, TAG_SEMIDEF_CUT, _semidef_cut(g0, edge))


# ---------------------------------------------------------------------------
# Independent verification
# ---------------------------------------------------------------------------


def check_certificate(cert: CertificateNode) -> CheckResult:
    """Re-verify every claim of a certificate from scratch.

    Each node's claim table is recomputed from its graph and stored edge:
    determinants, definiteness, rationality, the slope, the jump witness,
    the Seifert data and the child graphs.  A node is rejected when a
    recomputed claim fails, when a stored claim or field differs from the
    recomputed one, or when a child's graph or tag does not match.  The
    first failing node's path is reported.  Jump witnesses come from the
    canonical (smallest-id tie-break) Laufer run, which is the run this
    certificate format prescribes.
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
    to ``node.graph``, whose facts the parent's table has computed already."""
    table_of = _TABLES.get(node.tag) if isinstance(node.tag, str) else None
    if table_of is None:
        return _fail(path, f"unknown tag {node.tag!r}")
    try:
        table = table_of(node.graph if graph is None else graph, node.edge)
        _check_claims(table.claims)
    except InternalCheckError as exc:
        return _fail(path, str(exc))
    except Exception as exc:
        return _fail(path, f"exception: {exc}")
    for stored, fresh in zip_longest(node.claims, table.claims):
        # the JSON forms tell a bool from a number, == does not (True == 1)
        if stored != fresh or _claim_to_json(stored) != _claim_to_json(fresh):
            return _fail(path, f"stored claim {stored} != recomputed {fresh}")
    for name in ("edge", "r", "jump", "seifert"):
        stored, fresh = getattr(node, name), getattr(table, name)
        if stored != fresh:
            return _fail(path, f"stored {name} {stored} != recomputed {fresh}")
    if len(node.children) != len(table.children):
        return _fail(path, f"{node.tag} node needs {len(table.children)} children")
    for i, (child, (want, tags)) in enumerate(zip(node.children, table.children)):
        if child.graph != want:
            return _fail(path, f"children[{i}] graph differs from the recomputed one")
        if child.tag not in tags:
            return _fail(path, f"children[{i}] of a {node.tag} node has tag {child.tag!r}")
    for i, (child, (want, _)) in enumerate(zip(node.children, table.children)):
        res = _check_node(child, f"{path}.children[{i}]", want)
        if not res:
            return res
    return CheckResult(True)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def _value_to_json(v):
    return v if isinstance(v, bool) else str(Fraction(v))


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
