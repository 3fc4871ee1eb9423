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
O(n) exact operations instead of O(n^3).  ``root_dp`` and ``walk_verdict``
run it on a cut's side: its slope, and its verdict with the slope hung.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction

from .errors import GraphStructureError, InternalCheckError, SingularFormError
from .graph import PlumbingGraph, VertexId


class DefinitenessKind(Enum):
    NEGATIVE_DEFINITE = "negative_definite"
    NEGATIVE_SEMIDEFINITE = "negative_semidefinite"
    OTHER = "other"


class Definiteness(namedtuple("Definiteness", "kind corank", defaults=(0,))):
    """Verdict of the symmetric elimination: ``kind``, a ``DefinitenessKind``,
    and ``corank``, the number of zero rows eliminated (only meaningful for
    the semidefinite verdict)."""

    __slots__ = ()

    @property
    def is_negative_definite(self) -> bool:
        return self.kind is DefinitenessKind.NEGATIVE_DEFINITE

    @property
    def is_negative_semidefinite(self) -> bool:
        return self.kind is DefinitenessKind.NEGATIVE_SEMIDEFINITE


_DEFINITE = Definiteness(DefinitenessKind.NEGATIVE_DEFINITE)
_OTHER = Definiteness(DefinitenessKind.OTHER)


def _check_support(g: PlumbingGraph, cyc: Mapping) -> None:
    if not cyc.keys() <= g._weights.keys():
        v = next(v for v in cyc if v not in g._weights)
        raise GraphStructureError(f"cycle supported on foreign vertex {v!r}")


def combine(s, prod, d, p):
    """Fold one child's (D, P) into its parent's running sums: ``prod`` is
    the product of the children's D, ``s`` the sum over children of
    P_c * prod_{c' != c} D_c'.  The parent then has D = -e * prod - s and
    P = prod (the edge-deletion identity, no division)."""
    return s * d + p * prod, prod * d


def _det_definiteness(g: PlumbingGraph) -> tuple[Fraction, Definiteness]:
    """``determinant`` and ``definiteness``, from one ``walk_verdict`` of
    the whole forest per graph: the result is stored on ``g``."""
    if g._dp is None:
        g._dp = walk_verdict(g, g._parent.items())
    return g._dp


def _dp_fold(g: PlumbingGraph, order, acc: dict) -> tuple[list, bool]:
    """The (D, P) recurrence up a rooted ``order`` of (vertex, parent)
    pairs, parents first, a root's parent None (a graph's ``_parent.items()``
    or a ``rooted_preorder`` walk): the (D, P) of each root, in reverse
    order, and whether D <= 0 at some other vertex.  ``acc`` holds the
    (s, prod) sums of the children folded into a vertex so far with
    ``combine``; it may start with extra leaves folded in."""
    weight, roots, low = g._weights, [], False
    for v, p in reversed(order):
        s, prod = acc.pop(v, (0, 1))
        d = -weight[v] * prod - s
        if p is None:
            roots.append((d, prod))
        else:
            low = low or d <= 0
            p_s, p_prod = acc.get(p, (0, 1))
            acc[p] = combine(p_s, p_prod, d, prod)
    return roots, low


def walk_verdict(g: PlumbingGraph, order, slope=None) -> tuple[Fraction, Definiteness]:
    """(determinant, definiteness) of the forest ``order`` walks (``_dp_fold``),
    folded in ``int`` on an integer graph; the determinant is returned as a
    ``Fraction``, the roots' D over c.  ``slope`` = (v, d, c), d, c > 0, hangs a
    vertex of weight -d/c at v: a leaf of (D, P) = (d/c, 1), folded in as
    (d, c).  As ``combine`` is bilinear, this scales the D and P of each
    ancestor of the leaf by c and of no other vertex: every sign and every
    zero stays, and the roots' D multiply to the determinant times c."""
    at, d, c = slope or (None, 0, 1)
    roots, other = _dp_fold(g, order, {at: combine(0, 1, d, c)} if slope else {})
    det, corank = 1, 0
    for d, _ in roots:
        det *= d
        corank += d == 0
        other = other or d < 0
    det = Fraction(det) if c == 1 else Fraction(det, c)
    if other:
        return det, _OTHER
    if corank:
        return det, Definiteness(DefinitenessKind.NEGATIVE_SEMIDEFINITE, corank)
    return det, _DEFINITE


def root_dp(g: PlumbingGraph, order) -> tuple:
    """(D, P) of the one root of ``order``, a tree of ``g`` rooted as in
    ``_dp_fold``: the det(-I) of the tree and of the tree minus its root."""
    (dp,), _ = _dp_fold(g, order, {})
    return dp


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
    order = g._parent.items()  # parents first
    diag = {v: g.weight(v) for v in g.vertices}
    b = {v: Fraction(rhs.get(v, 0)) for v in g.vertices}
    for v, p in reversed(order):
        if diag[v] == 0:
            raise SingularFormError("intersection form is singular")
        if p is not None:
            diag[p] -= Fraction(1) / diag[v]
            b[p] -= b[v] / diag[v]
    x: dict[VertexId, Fraction] = {}
    for v, p in order:
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
        lhs = g.weight(v) * k[v] + sum(k[n] for n in g._adj[v])
        if lhs != rhs[v]:
            raise InternalCheckError("canonical cycle failed adjunction re-check")
    return k


def chi(g: PlumbingGraph, cyc: Mapping) -> Fraction:
    """Riemann-Roch expression chi(l) = -((K + l), l) / 2."""
    _check_support(g, cyc)
    return Fraction(-_k_plus_l_l(g, cyc), 2)


def _k_plus_l_l(g: PlumbingGraph, cyc: Mapping):
    """((K + l), l), with no support check.  By adjunction (K, l) =
    sum_v l_v (-2 - e_v), so the canonical cycle is not needed; on an
    integer cycle of an integer graph it is an even int, as
    l_v (-2 - e_v + e_v l_v) = -2 l_v + e_v l_v (l_v - 1)."""
    weight, adj = g._weights, g._adj
    total = 0  # the neighbour terms count each edge twice
    for v, lv in cyc.items():
        e = weight[v]
        total += lv * (-2 - e + e * lv)
        for n in adj[v]:
            total += lv * cyc.get(n, 0)
    return total


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
