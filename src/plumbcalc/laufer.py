"""Laufer's computation sequence, rationality, and bad-vertex machinery.

The fundamental cycle Z_min of a connected negative-definite graph is the
unique minimal nonzero cycle Z >= 0 with (Z, E_v) <= 0 for every vertex.
Laufer's algorithm reaches it from l_0 = sum_v E_v by repeatedly adding a
basis vector with positive pairing:

    while some (l_i, E_v) > 0:  l_{i+1} = l_i + E_{v(i)}

The end cycle is Z_min regardless of the choices of v(i), and the graph
is Artin-rational iff every step has pairing value exactly 1 (a step with
value >= 2 is a "jump").  We cross-check against Artin's criterion
chi(Z_min) >= 1 on every call; a disagreement is an internal error.

A vertex set B is "bad" when pushing its decorations sufficiently far
down makes the graph rational.  Holding B at multiplicity 1, a Laufer run
over the other vertices ends at the least cycle Y with (Y, E_u) <= 0 off
B, whatever the weights of B; "sufficiently far" is (Y, E_v) <= 0 for every
v in B, where Z_min = Y and further decrements change no pairing.
"""

from __future__ import annotations

import logging
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .errors import GraphStructureError, InternalCheckError
from .graph import PlumbingGraph, VertexId, nodes, subgraph, with_weight
from .lattice import is_negative_definite

logger = logging.getLogger(__name__)

_STEP_CAP = 1_000_000
DEFAULT_BAD_SET_CAP = 14  # vertices up to which the exhaustive min_bad runs


@dataclass(frozen=True)
class LauferStep:
    cycle_before: dict[VertexId, int]
    vertex: VertexId
    pairing_value: int


@dataclass(frozen=True)
class ComputationSequence:
    steps: tuple[LauferStep, ...]
    final: dict[VertexId, int]


@dataclass(frozen=True)
class JumpWitness:
    step: int
    vertex: VertexId
    value: int


@dataclass(frozen=True)
class RationalityVerdict:
    rational: bool
    jump: JumpWitness | None
    z_min: dict[VertexId, int]
    chi_zmin: Fraction


def _check_laufer_input(g: PlumbingGraph) -> None:
    if len(g) == 0:
        raise GraphStructureError("empty graph")
    if not g.is_connected():
        raise GraphStructureError("Laufer algorithm requires a connected graph")
    if not g.has_integer_weights():
        raise GraphStructureError("Laufer algorithm requires integer weights")
    if not is_negative_definite(g):
        raise GraphStructureError(
            "Laufer algorithm requires a negative definite graph"
        )


def _run(g: PlumbingGraph, rng: random.Random | None, record: bool, frozen=()):
    """The computation sequence from l_0 = sum_v E_v.  ``pos`` holds the
    sorted ranks (positions in ``g.vertices``) of the vertices with positive
    pairing; a step updates only the stepped vertex and its neighbours, and
    ``pos[0]`` or ``rng.choice(pos)`` picks what a full rescan in id order
    would pick, with the same random draws.  ``frozen`` vertices never step."""
    vs = g.vertices
    rank = {v: i for i, v in enumerate(vs)}
    ws = g.weights()
    weights = [ws[v] for v in vs]
    nbrs = [[rank[n] for n in g.neighbors(v)] for v in vs]
    mult = [1] * len(vs)
    pair = [w + len(ns) for w, ns in zip(weights, nbrs)]
    pos = [i for i, x in enumerate(pair) if x > 0 and vs[i] not in frozen]
    steps: list[LauferStep] = []
    first_jump: JumpWitness | None = None
    count = 0
    while pos:
        i = pos[0] if rng is None else rng.choice(pos)
        val = pair[i]
        if record:
            steps.append(LauferStep(dict(zip(vs, mult)), vs[i], val))
        if first_jump is None and val >= 2:
            first_jump = JumpWitness(count, vs[i], val)
        mult[i] += 1
        pair[i] += weights[i]
        if pair[i] <= 0:
            del pos[bisect_left(pos, i)]
        for n in nbrs[i]:
            pair[n] += 1
            if pair[n] == 1 and vs[n] not in frozen:
                insort(pos, n)
        count += 1
        if count > _STEP_CAP:
            raise InternalCheckError("computation sequence exceeded step cap")
    return dict(zip(vs, mult)), steps, first_jump


def z_min(
    g: PlumbingGraph, rng: random.Random | None = None
) -> tuple[dict[VertexId, int], ComputationSequence]:
    """Fundamental cycle plus the full computation sequence.

    ``rng`` randomizes the tie-break among positive-pairing vertices (used
    by the choice-independence property tests); the default picks the
    smallest vertex id, which makes golden tests deterministic.
    """
    _check_laufer_input(g)
    mult, steps, _ = _run(g, rng, record=True)
    return mult, ComputationSequence(tuple(steps), dict(mult))


def zmin_multiplicities(g: PlumbingGraph) -> dict[VertexId, int]:
    """Z_min without step recording."""
    _check_laufer_input(g)
    mult, _, _ = _run(g, None, record=False)
    return mult


def _chi_integral(g: PlumbingGraph, z: dict[VertexId, int]) -> Fraction:
    """chi(z) = -((K, z) + (z, z)) / 2 in integers: by adjunction
    (K, z) = sum_v z_v (-2 - e_v), so the canonical cycle is not needed."""
    weights = g.weights()
    total = 0  # (K, z) + (z, z); the neighbour sums count each edge twice
    for v, zv in z.items():
        e = weights[v]
        total += zv * (-2 - e + e * zv + sum(map(z.__getitem__, g.neighbors(v))))
    return Fraction(-total, 2)


def is_rational(
    g: PlumbingGraph, rng: random.Random | None = None
) -> RationalityVerdict:
    """Rationality via Laufer jumps, cross-checked against chi(Z_min) >= 1.

    The boolean is tie-break independent; the jump witness reports the
    first value >= 2 in the run actually taken.
    """
    _check_laufer_input(g)
    return _verdict(g, rng)


def _verdict(g: PlumbingGraph, rng: random.Random | None = None) -> RationalityVerdict:
    """``is_rational`` on a graph known to pass ``_check_laufer_input``.  The
    ``rng=None`` verdict is stored on ``g``; each call gets its own Z_min."""
    v = g._rationality if rng is None else None
    if v is None:
        mult, _, jump = _run(g, rng, record=False)
        chi_z = _chi_integral(g, mult)
        if (jump is None) != (chi_z >= 1):
            raise InternalCheckError(
                f"Laufer ({jump}) and Artin (chi={chi_z}) criteria disagree"
            )
        v = RationalityVerdict(jump is None, jump, mult, chi_z)
        if rng is None:
            g._rationality = v
    return RationalityVerdict(v.rational, v.jump, dict(v.z_min), v.chi_zmin)


# ---------------------------------------------------------------------------
# Bad vertices
# ---------------------------------------------------------------------------


def stabilize(g: PlumbingGraph, bad: Iterable[VertexId]) -> PlumbingGraph:
    """The graph written with a down-arrow: ``bad`` lowered to the largest
    weights at which each has multiplicity 1 in Z_min, that is
    e'_v = min(e_v, -sum_{n~v} Y_n) with Y as in the module docstring.
    Lowering keeps ``g`` negative definite.  For one vertex a loop that
    decrements until multiplicity 1 stops here (Z_min is monotone in e_v);
    for a larger B it can lower a vertex further, while another vertex of B
    still lifts it, but the verdict depends only on Y and is the same.
    """
    bad = set(bad)
    for v in sorted(bad):
        if not g.has_vertex(v):
            raise GraphStructureError(f"unknown vertex {v!r}")
    _check_laufer_input(g)
    if not bad:
        return g
    y, _, _ = _run(g, None, record=False, frozen=bad)
    ws = g.weights()
    low = {v: -sum(map(y.__getitem__, g.neighbors(v))) for v in bad}
    drop = {v: w for v, w in low.items() if w < ws[v]}
    return PlumbingGraph({**ws, **drop}, g.edges) if drop else g


def is_bad_set(g: PlumbingGraph, bad: Iterable[VertexId]) -> bool:
    """True when pushing ``bad`` sufficiently negative makes ``g`` rational."""
    # the lowered graph is new, and lowering keeps the checked g definite
    return _verdict(stabilize(g, bad)).rational


def min_bad(g: PlumbingGraph) -> tuple[int, frozenset[VertexId]]:
    """Smallest bad set, by exhaustive size-ascending subset search.

    Subsets of nodes are tried before other subsets of the same size (the
    node set is always bad, so this usually wins quickly), but the search
    covers all vertex subsets because bad sets are not restricted to
    nodes.  The first hit at the smallest size is returned; when it
    contains a non-node we log that as a diagnostic.
    """
    verts = list(g.vertices)
    node_set = set(nodes(g))
    node_list = sorted(node_set)
    for k in range(len(verts) + 1):
        for cand in combinations(node_list, k):
            if is_bad_set(g, cand):
                return k, frozenset(cand)
        for cand in combinations(verts, k):
            if set(cand) <= node_set:
                continue  # already tried above
            if is_bad_set(g, cand):
                logger.info("minimal bad set %s contains a non-node", cand)
                return k, frozenset(cand)
    raise InternalCheckError("no bad set found; the full vertex set must be bad")


# ---------------------------------------------------------------------------
# Monotonicity spot checks (facts used by the induction)
# ---------------------------------------------------------------------------


@dataclass
class MonotonicityReport:
    subgraph_checks: int = 0
    decrease_checks: int = 0
    induced_badset_checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_connected_subgraph(
    g: PlumbingGraph, rng: random.Random
) -> PlumbingGraph:
    target = rng.randint(1, len(g))
    start = rng.choice(g.vertices)
    chosen = {start}
    frontier = [n for n in g.neighbors(start)]
    while frontier and len(chosen) < target:
        v = rng.choice(frontier)
        frontier.remove(v)
        if v in chosen:
            continue
        chosen.add(v)
        frontier.extend(n for n in g.neighbors(v) if n not in chosen)
    return subgraph(g, chosen)


def monotonicity_report(
    g: PlumbingGraph, rng: random.Random | None = None, samples: int = 20
) -> MonotonicityReport:
    """Spot-check rationality monotonicity on ``g``:

    - connected subgraphs of a rational graph stay rational;
    - decreasing decorations of a rational graph stays rational;
    - the restriction of a bad set to a subgraph is a bad set there
      (hence m is monotone under subgraphs).
    """
    rng = rng or random.Random(0)
    rep = MonotonicityReport()
    base_rational = is_rational(g).rational
    witness = min_bad(g)[1] if len(g) <= DEFAULT_BAD_SET_CAP else frozenset(nodes(g))
    for _ in range(samples):
        sub = _random_connected_subgraph(g, rng)
        rep.subgraph_checks += 1
        if base_rational and not is_rational(sub).rational:
            rep.failures.append(f"subgraph {sub.vertices} broke rationality")
        rep.induced_badset_checks += 1
        induced = frozenset(witness) & set(sub.vertices)
        if not is_bad_set(sub, induced):
            rep.failures.append(
                f"induced bad set {sorted(induced)} failed on {sub.vertices}"
            )
        if base_rational:
            v = rng.choice(g.vertices)
            lowered = with_weight(g, v, g.weight(v) - rng.randint(1, 3))
            rep.decrease_checks += 1
            if not is_rational(lowered).rational:
                rep.failures.append(f"decreasing {v} broke rationality")
    return rep
