"""Star-shaped graphs, Seifert invariants, and the numeric criteria.

A star with central weight e0 and legs decorated -b_{i1}, ..., -b_{is_i}
(b_ij >= 2, the vertex with b_{i1} adjacent to the center) encodes the
Seifert invariants (alpha_i, omega_i) through the positive continued
fraction [b_{i1}, ..., b_{is_i}] = alpha_i/omega_i, with
0 < omega_i < alpha_i coprime.  The orbifold Euler number is
e = e0 + sum_i omega_i/alpha_i; e < 0 is equivalent to the star being
negative definite.

Continued fractions live here only: ``negative_cf`` is the one expansion
(a leg's terms b_ij negate that of -alpha_i/omega_i), and ``surgery``
expands its slopes with it.  None is evaluated term by term: a leg's
(alpha_i, omega_i) is the (D, P) of the lattice walk of the leg rooted at
its first vertex, the det(-I) of the leg and of the leg minus that
vertex, because D = b_i1 D' - D'' is the recurrence of
[b_i1, ..., b_is] = b_i1 - 1/[b_i2, ..., b_is].

Two numeric criteria are implemented for these spaces:

* Pinkham's rationality test: the graph is NOT rational iff
      sum_i floor(-l omega_i / alpha_i) <= l e0 - 2
  holds for some integer l >= 0.  Writing each floor as the exact value
  minus its fractional part shows a witness needs sum of fractional parts
  >= 2 + l|e|, and that sum is < nu, so l < (nu - 2)/|e| bounds the scan.

* The transverse-foliation test for nu = 3 legs, via realizability of a
  triple (x, y, z) in (0,1)^3: coprime integers m > a > 0 must exist with
  x < a/m, y < (m-a)/m, z < 1/m up to permutation.  A coorientable
  transverse foliation exists iff e0 = -1 and (omega_i/alpha_i) is
  realizable, or e0 = -2 and ((alpha_i-omega_i)/alpha_i) is realizable.
  (The literature states the criterion with beta_i; we identify
  beta_i = omega_i.)  For a minimal 3-leg star with e0 <= -3 every vertex
  satisfies e_v <= -valency, the graph is rational, and no taut foliation
  exists, so the test returns False there.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import permutations
from math import gcd

from .errors import GraphStructureError, InternalCheckError
from .graph import PlumbingGraph, VertexId, nodes, rooted_preorder
from .lattice import determinant, root_dp


class SeifertData(namedtuple("SeifertData", "e0 legs")):
    """Central weight plus legs (alpha_i, omega_i), stored sorted.

    Requires 0 < omega < alpha, gcd(alpha, omega) = 1, and at least three
    legs (the genuine star-shaped case).  ``_replace`` checks too.
    """

    __slots__ = ()

    def __new__(cls, e0: int, legs: tuple[tuple[int, int], ...]):
        if len(legs) < 3:
            raise GraphStructureError("Seifert data needs at least three legs")
        for alpha, omega in legs:
            if not (0 < omega < alpha):
                raise GraphStructureError(
                    f"leg ({alpha},{omega}) violates 0 < omega < alpha"
                )
            if gcd(alpha, omega) != 1:
                raise GraphStructureError(f"leg ({alpha},{omega}) not coprime")
        return super().__new__(cls, int(e0), tuple(sorted(legs)))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def nu(self) -> int:
        return len(self.legs)


ContinuedFraction = namedtuple("ContinuedFraction", "value terms")


def negative_cf(r: Fraction | int) -> ContinuedFraction:
    """Negative (Hirzebruch-Jung style) continued fraction of ``r < 0``.

    Integers expand to a single term; otherwise take e_1 = floor(r) and
    recurse on -1/(r - floor(r)), which keeps every later term <= -2.  In
    integers, with r = p/q: e = floor(p/q), then (p, q) <- (-q, p - e q)
    until the remainder is 0.  The expansion is re-evaluated exactly before
    returning: the continuant pair of the terms must be (numerator,
    denominator) of ``r``.
    """
    r = Fraction(r)
    if r >= 0:
        raise GraphStructureError(f"slope must be negative, got {r}")
    terms: list[int] = []
    p, q = r.numerator, r.denominator
    while q:
        e = p // q
        terms.append(e)
        p, q = -q, p - e * q
    if terms[0] > -1 or any(t > -2 for t in terms[1:]):
        raise InternalCheckError(f"continued fraction terms out of range: {terms}")
    # [e_k, ..., e_s] = a/b with b > 0, from the right: a/b is then
    # e_{k-1} - b/a = (b - e_{k-1} a)/(-a), and a < 0 for every tail
    a, b = terms[-1], 1
    for e in reversed(terms[:-1]):
        a, b = b - e * a, -a
    if (a, b) != (r.numerator, r.denominator):
        raise InternalCheckError(f"continued fraction of {r} failed round-trip")
    return ContinuedFraction(r, tuple(terms))


def hirzebruch_cf(alpha: int, omega: int) -> tuple[int, ...]:
    """Positive continued fraction [b_1, ..., b_s] = alpha/omega, b_i >= 2:
    the negated terms of the negative continued fraction of -alpha/omega."""
    if not (0 < omega < alpha) or gcd(alpha, omega) != 1:
        raise GraphStructureError(f"need coprime 0 < omega < alpha, got {alpha}/{omega}")
    return tuple(-t for t in negative_cf(Fraction(-alpha, omega)).terms)


def star_to_seifert(g: PlumbingGraph) -> SeifertData:
    """Read Seifert data off a star-shaped graph in normal form.

    The graph must have exactly one vertex of valency >= 3, integer
    weights, and every leg weight <= -2 (normalize with ``minimize``
    first if needed).  Each leg's (alpha, omega) is its (D, P), read by
    ``root_dp`` from the walk of the leg (see the module docstring).
    """
    if not g.is_connected():
        raise GraphStructureError("star graph must be connected")
    if not g.has_integer_weights():
        raise GraphStructureError("star graph must have integer weights")
    ns = nodes(g)
    if len(ns) != 1:
        raise GraphStructureError(
            f"not star-shaped: {len(ns)} vertices of valency >= 3"
        )
    center = ns[0]
    legs: list[tuple[int, int]] = []
    for first in g.neighbors(center):
        leg = rooted_preorder(g, first, center)  # a path, from the center out
        for v, _ in leg:
            w = g.weight(v)
            if w > -2:
                raise GraphStructureError(
                    f"leg vertex {v!r} has weight {w} > -2; not in normal form"
                )
        legs.append(root_dp(g, leg))
    return SeifertData(int(g.weight(center)), tuple(legs))


def seifert_to_graph(sd: SeifertData) -> PlumbingGraph:
    """Star-shaped graph of the Seifert data: center ``v0`` plus one string
    per leg with weights -b_ij, the b_i1 vertex adjacent to the center."""
    weights: dict[VertexId, int] = {"v0": sd.e0}
    edges: list[tuple[VertexId, VertexId]] = []
    for i, (alpha, omega) in enumerate(sd.legs, start=1):
        prev = "v0"
        for j, b in enumerate(hirzebruch_cf(alpha, omega), start=1):
            vid = f"l{i}_{j}"
            weights[vid] = -b
            edges.append((prev, vid))
            prev = vid
    return PlumbingGraph(weights, edges)


def orbifold_euler(sd: SeifertData) -> Fraction:
    """e = e0 + sum_i omega_i/alpha_i (negative iff the star is definite)."""
    return sd.e0 + sum(Fraction(o, a) for a, o in sd.legs)


def pinkham_nonrational(sd: SeifertData) -> tuple[bool, int | None]:
    """Pinkham's test: non-rational iff the floor inequality holds for some
    l in [0, ceil((nu-2)/|e|)]; the bound is complete (see module docs)."""
    e = orbifold_euler(sd)
    if e >= 0:
        raise GraphStructureError(f"orbifold Euler number must be negative, got {e}")
    bound = math.ceil(Fraction(sd.nu - 2) / (-e))
    for l in range(0, bound + 1):
        lhs = sum(-((l * omega + alpha - 1) // alpha) for alpha, omega in sd.legs)
        if lhs <= l * sd.e0 - 2:
            return True, l
    return False, None


# assignment: the three values in (x, y, z) roles
RealizabilityWitness = namedtuple("RealizabilityWitness", "m a assignment")


def realizable(
    x: Fraction, y: Fraction, z: Fraction
) -> tuple[bool, RealizabilityWitness | None]:
    """Exhaustive search for coprime m > a > 0 with (up to permutation)
    x < a/m, y < (m-a)/m, z < 1/m.  Since z < 1/m forces m < 1/z the
    search is finite; permutations are tried in itertools order, then m
    ascending, then a ascending, so witnesses are deterministic.  Each m is
    an integer scan from floor(x*m) + 1 that stops at the first a coprime
    to m, so the search costs O(1/z) steps."""
    triple = (Fraction(x), Fraction(y), Fraction(z))
    for val in triple:
        if not (0 < val < 1):
            raise GraphStructureError(f"realizability needs values in (0,1), got {val}")
    for perm in permutations(triple):
        px, py, pz = perm
        m_max = math.ceil(1 / pz) - 1  # every m <= m_max has pz < 1/m
        for m in range(2, m_max + 1):
            # the smallest coprime a with px*m < a < (1 - py)*m
            a = px.numerator * m // px.denominator + 1
            while a * py.denominator < (py.denominator - py.numerator) * m:
                if gcd(a, m) == 1:
                    return True, RealizabilityWitness(m, a, perm)
                a += 1
    return False, None


def foliation_criterion(sd: SeifertData) -> bool:
    """Existence of a coorientable transverse foliation for a 3-leg star.

    e0 = -1: realizability of (omega_i/alpha_i); e0 = -2: realizability of
    ((alpha_i - omega_i)/alpha_i); e0 <= -3: False (the minimal star is
    rational by the valency bound, excluding a taut foliation)."""
    if sd.nu != 3:
        raise GraphStructureError(f"foliation criterion needs 3 legs, got {sd.nu}")
    e = orbifold_euler(sd)
    if e >= 0:
        raise GraphStructureError(f"star must be negative definite (e < 0), got e={e}")
    if sd.e0 == -1:
        found, _ = realizable(*(Fraction(o, a) for a, o in sd.legs))
        return found
    if sd.e0 == -2:
        found, _ = realizable(*(Fraction(a - o, a) for a, o in sd.legs))
        return found
    return False


def brieskorn_seifert(p: int, q: int, r: int) -> SeifertData:
    """Seifert data of the Brieskorn sphere with pairwise coprime indices:
    alphas (p, q, r), the omegas and e0 solved from
    e0*pqr + sum_i omega_i * (pqr/alpha_i) = -1 by modular inverses, so
    e = -1/(pqr).  The graph determinant is asserted to be 1."""
    alphas = (p, q, r)
    for a in alphas:
        if a < 2:
            raise GraphStructureError(f"Brieskorn indices must be >= 2, got {a}")
    for i in range(3):
        for j in range(i + 1, 3):
            if gcd(alphas[i], alphas[j]) != 1:
                raise GraphStructureError(
                    f"indices {alphas[i]} and {alphas[j]} are not coprime"
                )
    P = p * q * r
    # modulo alpha_i only the omega_i term survives: omega_i * (P/alpha_i)
    # = -1, whose unique solution in (0, alpha_i) is coprime to alpha_i
    omegas = [-pow(P // a, -1, a) % a for a in alphas]
    e0 = (-1 - sum(o * (P // a) for a, o in zip(alphas, omegas))) // P
    sd = SeifertData(e0, tuple(zip(alphas, omegas)))
    if orbifold_euler(sd) != Fraction(-1, P):
        raise InternalCheckError("Brieskorn data has wrong Euler number")
    if determinant(seifert_to_graph(sd)) != 1:
        raise InternalCheckError("Brieskorn graph determinant is not 1")
    return sd

