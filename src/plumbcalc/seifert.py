"""Star-shaped graphs, Seifert invariants, and the numeric criteria.

A star with central weight e0 and legs decorated -b_{i1}, ..., -b_{is_i}
(b_ij >= 2, the vertex with b_{i1} adjacent to the center) encodes the
Seifert invariants (alpha_i, omega_i) through the positive continued
fraction [b_{i1}, ..., b_{is_i}] = alpha_i/omega_i, with
0 < omega_i < alpha_i coprime.  The orbifold Euler number is
e = e0 + sum_i omega_i/alpha_i; e < 0 is equivalent to the star being
negative definite.

Continued fractions live here only: ``negative_cf`` is the one expansion
(a leg's terms b_ij negate that of -alpha_i/omega_i) and ``cf_eval`` the
one evaluation; ``surgery`` expands its slopes with the same functions.

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
from fractions import Fraction
from itertools import permutations
from math import gcd
from typing import Iterable, NamedTuple

from .errors import GraphStructureError, InternalCheckError
from .graph import PlumbingGraph, VertexId, nodes
from .lattice import determinant


class _SeifertFields(NamedTuple):
    e0: int
    legs: tuple[tuple[int, int], ...]


class SeifertData(_SeifertFields):
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


class ContinuedFraction(NamedTuple):
    value: Fraction
    terms: tuple[int, ...]


def cf_eval(terms: Iterable[int]) -> Fraction:
    """Evaluate [e_1, ..., e_s] = e_1 - 1/(e_2 - ...) exactly."""
    terms = list(terms)
    if not terms:
        raise GraphStructureError("empty continued fraction")
    val = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        val = t - 1 / val
    return val


def negative_cf(r: Fraction | int) -> ContinuedFraction:
    """Negative (Hirzebruch-Jung style) continued fraction of ``r < 0``.

    Integers expand to a single term; otherwise take e_1 = floor(r) and
    recurse on -1/(r - floor(r)), which keeps every later term <= -2.
    The expansion is re-evaluated exactly before returning.
    """
    r = Fraction(r)
    if r >= 0:
        raise GraphStructureError(f"slope must be negative, got {r}")
    terms: list[int] = []
    x = r
    while True:
        f = x.numerator // x.denominator  # floor
        terms.append(f)
        frac = x - f
        if frac == 0:
            break
        x = -1 / frac
    if terms[0] > -1 or any(t > -2 for t in terms[1:]):
        raise InternalCheckError(f"continued fraction terms out of range: {terms}")
    if cf_eval(terms) != r:
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
    first if needed).
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
        bs: list[int] = []
        prev, cur = center, first
        while True:
            w = g.weight(cur)
            if w > -2:
                raise GraphStructureError(
                    f"leg vertex {cur!r} has weight {w} > -2; not in normal form"
                )
            bs.append(int(-w))
            rest = [n for n in g.neighbors(cur) if n != prev]
            if not rest:
                break
            prev, cur = cur, rest[0]  # legs are simple paths (single node)
        value = cf_eval(bs)
        legs.append((value.numerator, value.denominator))
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


class RealizabilityWitness(NamedTuple):
    m: int
    a: int
    assignment: tuple[Fraction, Fraction, Fraction]  # values in (x, y, z) roles


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


def brieskorn_cover_rational(m: int, n: int) -> bool:
    """Rationality of the double-suspension Brieskorn singularity with
    exponents (2, m, n): true iff 1/2 + 1/m + 1/n > 1.  When (2, m, n) are
    pairwise coprime the verdict is cross-checked against the Laufer run
    on the actual Seifert graph."""
    if m < 2 or n < 2:
        raise GraphStructureError("exponents must be >= 2")
    verdict = Fraction(1, 2) + Fraction(1, m) + Fraction(1, n) > 1
    if gcd(m, n) == 1 and m % 2 and n % 2:
        from .laufer import is_rational

        direct = is_rational(seifert_to_graph(brieskorn_seifert(2, m, n))).rational
        if direct != verdict:
            raise InternalCheckError(
                f"Brieskorn inequality and Laufer disagree for (2,{m},{n})"
            )
    return verdict
