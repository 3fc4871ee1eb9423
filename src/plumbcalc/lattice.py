"""Exact rational linear algebra over the plumbing lattice.

The lattice of a graph is freely generated by its vertices with the
symmetric intersection form: diagonal entries are the decorations
``e_v``, off-diagonal entries are 1 per edge, else 0.  Everything here is
exact: integer graphs are computed in ``int``, and ``Fraction`` appears
only where a slope vertex carries a rational decoration.  There is no
floating point anywhere, because definiteness and det-zero verdicts are
boundary sensitive.

Cycles are plain mappings ``vertex id -> int`` (or ``Fraction`` for
rational cycles such as the canonical cycle); missing vertices mean
multiplicity zero.

Determinants follow the convention ``det(G) := det(-I)``, so negative
definite graphs have positive determinant.  ``det(empty) = 1`` and the
determinant of a disjoint union is the product over components, which is
exactly what the edge-deletion identity

    det(G) = det(G - e) - det(G - [v,w])        (e = (v,w))

needs in its degenerate cases.  Both determinant and definiteness come
from one post-order pass over the forest: for each rooted subtree, D is
its det(-I) and P the product of its children's D, so each verdict costs
O(n) exact operations instead of O(n^3).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import GraphStructureError, InternalCheckError, SingularFormError
from .graph import PlumbingGraph, VertexId

Cycle = Mapping[VertexId, int]
QCycle = Mapping[VertexId, Fraction]


class DefinitenessKind(Enum):
    NEGATIVE_DEFINITE = "negative_definite"
    NEGATIVE_SEMIDEFINITE = "negative_semidefinite"
    OTHER = "other"


class Definiteness(NamedTuple):
    """Verdict of the symmetric elimination; ``corank`` counts the zero
    rows eliminated (only meaningful for the semidefinite verdict)."""

    kind: DefinitenessKind
    corank: int = 0

    @property
    def is_negative_definite(self) -> bool:
        return self.kind is DefinitenessKind.NEGATIVE_DEFINITE

    @property
    def is_negative_semidefinite(self) -> bool:
        return self.kind is DefinitenessKind.NEGATIVE_SEMIDEFINITE


def _check_support(g: PlumbingGraph, cyc: Mapping) -> None:
    for v in cyc:
        if not g.has_vertex(v):
            raise GraphStructureError(f"cycle supported on foreign vertex {v!r}")


def _post_order(g: PlumbingGraph) -> list[tuple[VertexId, VertexId | None]]:
    """(vertex, parent) pairs, children before parents; each component is
    rooted at its least vertex: the graph's rooted order, reversed."""
    return g._order[::-1]


def combine(s, prod, d, p):
    """Fold one child's (D, P) into its parent's running sums: ``prod`` is
    the product of the children's D, ``s`` the sum over children of
    P_c * prod_{c' != c} D_c'.  The parent then has D = -e * prod - s and
    P = prod (the edge-deletion identity, no division)."""
    return s * d + p * prod, prod * d


def _det_definiteness(g: PlumbingGraph) -> tuple[Fraction, Definiteness]:
    """``determinant`` and ``definiteness``, from one ``_dp_pass`` per graph:
    the result is stored on ``g``."""
    if g._dp is None:
        g._dp = _dp_pass(g)
    return g._dp


def _dp_pass(g: PlumbingGraph) -> tuple[Fraction, Definiteness]:
    """The (D, P) pass: D_v, the det(-I) of the subtree rooted at v, per
    vertex in post order.  Integer graphs stay in ``int``; a slope vertex
    brings ``Fraction`` into the values above it."""
    acc: dict[VertexId, tuple] = {}
    det, corank, other = 1, 0, False
    for v, p in _post_order(g):
        s, prod = acc.pop(v, (0, 1))
        d = -g.weight(v) * prod - s
        if p is None:
            det *= d
            corank += d == 0
            other = other or d < 0
        else:
            other = other or d <= 0
            acc[p] = combine(*acc.get(p, (0, 1)), d, prod)
    if other:
        return Fraction(det), Definiteness(DefinitenessKind.OTHER)
    if corank:
        return Fraction(det), Definiteness(DefinitenessKind.NEGATIVE_SEMIDEFINITE, corank)
    return Fraction(det), Definiteness(DefinitenessKind.NEGATIVE_DEFINITE)


def determinant(g: PlumbingGraph) -> Fraction:
    """det(-I), exact: the product of the component roots' D values.  The
    empty graph has determinant 1."""
    return _det_definiteness(g)[0]


def definiteness(g: PlumbingGraph) -> Definiteness:
    """Exact verdict from the (D, P) pass, i.e. Sylvester's criterion with
    the vertices eliminated in leaf order.

    Every D > 0: negative definite.  D = 0 at k component roots and
    D > 0 elsewhere: negative semidefinite of corank k.  Any D < 0, or
    D = 0 below a root (a zero pivot that still meets its parent): other.
    """
    return _det_definiteness(g)[1]


def is_negative_definite(g: PlumbingGraph) -> bool:
    return definiteness(g).is_negative_definite


def solve_intersection_form(
    g: PlumbingGraph, rhs: Mapping[VertexId, Fraction]
) -> dict[VertexId, Fraction]:
    """Solve I x = rhs exactly by tree-structured elimination.

    Requires every leaf-order pivot to be nonzero; negative definite
    graphs always qualify (all pivots are negative).  A zero pivot raises
    SingularFormError.
    """
    order = _post_order(g)
    diag = {v: g.weight(v) for v in g.vertices}
    b = {v: Fraction(rhs.get(v, 0)) for v in g.vertices}
    for v, p in order:
        if diag[v] == 0:
            raise SingularFormError("intersection form is singular")
        if p is not None:
            diag[p] -= Fraction(1) / diag[v]
            b[p] -= b[v] / diag[v]
    x: dict[VertexId, Fraction] = {}
    for v, p in reversed(order):
        acc = b[v]
        if p is not None:
            acc -= x[p]
        x[v] = acc / diag[v]
    return x


def canonical_cycle(g: PlumbingGraph) -> dict[VertexId, Fraction]:
    """The canonical cycle K, i.e. the unique rational solution of the
    adjunction relations (K + E_v, E_v) = -2 for all v.

    Requires an invertible form (negative definite graphs qualify).  The
    solution is re-checked exactly against every adjunction equation.
    """
    rhs = {v: Fraction(-2) - g.weight(v) for v in g.vertices}
    k = solve_intersection_form(g, rhs)
    for v in g.vertices:
        lhs = g.weight(v) * k[v] + sum(k[n] for n in g.neighbors(v))
        if lhs != rhs[v]:
            raise InternalCheckError("canonical cycle failed adjunction re-check")
    return k


def chi(g: PlumbingGraph, cyc: Mapping) -> Fraction:
    """Riemann-Roch expression chi(l) = -((K + l), l) / 2.  By adjunction
    (K, l) = sum_v l_v (-2 - e_v), so the canonical cycle is not needed."""
    _check_support(g, cyc)
    total = 0  # (K, l) + (l, l); the neighbour terms count each edge twice
    for v, lv in cyc.items():
        e = g.weight(v)
        total += lv * (-2 - e + e * lv)
        for n in g.neighbors(v):
            total += lv * cyc.get(n, 0)
    return Fraction(-total, 2)


def intersection_form(
    g: PlumbingGraph,
) -> tuple[tuple[VertexId, ...], list[list[Fraction]]]:
    """The full matrix of I in sorted-vertex order (debug export)."""
    vs = g.vertices
    idx = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for v in vs:
        rows[idx[v]][idx[v]] = Fraction(g.weight(v))
    for a, b in g.edges:
        rows[idx[a]][idx[b]] = Fraction(1)
        rows[idx[b]][idx[a]] = Fraction(1)
    return vs, rows
