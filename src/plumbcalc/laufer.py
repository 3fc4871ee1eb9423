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
Every l_i stays <= Z_min, so a run takes sum_v Z_min_v - n steps, each
O(deg log n) with the worklist of ``_run``; no step count is capped.

A vertex set B is "bad" when pushing its decorations sufficiently far
down makes the graph rational.  Holding B at multiplicity 1, a Laufer run
over the other vertices (the frozen run) ends at the least cycle Y with
(Y, E_u) <= 0 off B, whatever the weights of B; "sufficiently far" is
(Y, E_v) <= 0 for every v in B, reached first at the stabilized weights
e'_v = min(e_v, -sum_{n~v} Y_n).

Lemma: the canonical run on g' (g with the weights e') is the frozen run
on g, step for step.  Proof: Y is >= 1 with (Y, E_u) <= 0 on g' for every
u, so Z_min(g') <= Y, and every cycle l of the run on g' has l <= Z_min(g')
<= Y.  While v in B has not stepped, (l, E_v) = e'_v + sum_{n~v} l_n <=
e'_v + sum_{n~v} Y_n <= 0, so v never turns positive and never steps.  The
pairing of a vertex off B does not involve the weights of B.  So both runs
see the same positive vertices off B and none on B, pick the same vertex
at every step, and end together, at Z_min(g') = Y with the same first
jump.  Hence one frozen run gives the least-id verdict of g', and with
B empty the frozen run is the plain run: ``_stabilized`` runs, cross-checks
and stores every least-id run, once per (graph, frozen set), and the
empty set holds the graph's own verdict.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .errors import GraphStructureError, InternalCheckError
from .graph import PlumbingGraph, VertexId, nodes
from .lattice import chi, is_negative_definite

DEFAULT_BAD_SET_CAP = 14  # vertices up to which the exhaustive min_bad runs
_PLAIN = frozenset()  # no vertex frozen: the key of the graph's own run


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
    return dict(zip(vs, mult)), steps, first_jump


def z_min(
    g: PlumbingGraph, rng: random.Random | None = None
) -> tuple[dict[VertexId, int], ComputationSequence]:
    """Fundamental cycle plus the full computation sequence.

    ``rng`` randomizes the tie-break among positive-pairing vertices (used
    by the choice-independence property tests); the default picks the
    smallest vertex id, which makes golden tests deterministic, and its
    run's verdict is cross-checked and stored on ``g`` like ``is_rational``'s.
    """
    _check_laufer_input(g)
    mult, steps, jump = _run(g, rng, record=True)
    if rng is None:
        _stabilized(g, _PLAIN, (dict(mult), jump))
    return mult, ComputationSequence(tuple(steps), dict(mult))


def zmin_multiplicities(g: PlumbingGraph) -> dict[VertexId, int]:
    """Z_min without step recording: the stored least-id verdict's."""
    return is_rational(g).z_min


def is_rational(
    g: PlumbingGraph, rng: random.Random | None = None
) -> RationalityVerdict:
    """Rationality via Laufer jumps, cross-checked against chi(Z_min) >= 1.

    The boolean is tie-break independent; the jump witness reports the
    first value >= 2 in the run actually taken.  The ``rng=None`` verdict
    is the one stored on ``g``; a seeded run neither reads nor writes it.
    """
    _check_laufer_input(g)
    if rng is None:
        return _stabilized(g, _PLAIN)[1]
    mult, _, jump = _run(g, rng, record=False)
    return _cross_checked(g, mult, jump)


def _fresh(v: RationalityVerdict) -> RationalityVerdict:
    """A stored verdict with a Z_min of its own, for a caller to keep."""
    return RationalityVerdict(v.rational, v.jump, dict(v.z_min), v.chi_zmin)


def _cross_checked(g, mult, jump) -> RationalityVerdict:
    """The verdict of a run on ``g`` ending at ``mult``, with Laufer checked
    against Artin."""
    chi_z = chi(g, mult)
    if (jump is None) != (chi_z >= 1):
        raise InternalCheckError(
            f"Laufer ({jump}) and Artin (chi={chi_z}) criteria disagree"
        )
    return RationalityVerdict(jump is None, jump, mult, chi_z)


# ---------------------------------------------------------------------------
# Bad vertices
# ---------------------------------------------------------------------------


def _checked_bad_set(g: PlumbingGraph, bad: Iterable[VertexId]) -> frozenset:
    bad = frozenset(bad)
    for v in sorted(bad):
        if not g.has_vertex(v):
            raise GraphStructureError(f"unknown vertex {v!r}")
    _check_laufer_input(g)
    return bad


def _stabilized(
    g: PlumbingGraph, bad: frozenset, run=None
) -> tuple[dict[VertexId, int], RationalityVerdict]:
    """The weights of ``bad`` that stabilizing lowers, and the least-id
    verdict of the stabilized graph, on a graph known to pass
    ``_check_laufer_input``.  One frozen run gives both (the lemma of the
    module docstring); with ``bad`` empty nothing is lowered and the verdict
    is the graph's own.  They are stored on ``g`` by ``bad``, and each call
    gets its own copies.  ``run``, the (end cycle, first jump) of a least-id
    run the caller has already made, is stored in place of a new run."""
    if g._stabilized is None:
        g._stabilized = {}
    hit = g._stabilized.get(bad)
    if hit is None:
        if run is None:
            y, _, jump = _run(g, None, record=False, frozen=bad)
        else:
            y, jump = run
        low = {v: -sum(map(y.__getitem__, g.neighbors(v))) for v in bad}
        drop = {v: w for v, w in low.items() if w < g.weight(v)}
        # chi(Y) on g is chi(Y) on the lowered graph: Y is 1 on bad, and a
        # vertex at multiplicity 1 adds -2 to (K, Y) + (Y, Y) whatever its
        # weight
        hit = g._stabilized[bad] = (drop, _cross_checked(g, y, jump))
    drop, v = hit
    return dict(drop), _fresh(v)


def stabilize(g: PlumbingGraph, bad: Iterable[VertexId]) -> PlumbingGraph:
    """The graph written with a down-arrow: ``bad`` lowered to the largest
    weights at which each has multiplicity 1 in Z_min, that is
    e'_v = min(e_v, -sum_{n~v} Y_n) with Y the end of the frozen run (see
    the module docstring).  Lowering keeps ``g`` negative definite.  For one
    vertex a loop that decrements until multiplicity 1 stops here (Z_min is
    monotone in e_v); for a larger B it can lower a vertex further, while
    another vertex of B still lifts it, but the verdict depends only on Y
    and is the same.

    By the lemma of the module docstring the frozen run is the stabilized
    graph's least-id run, so its verdict is stored on the graph returned,
    under the empty set: ``is_rational`` on it runs no Laufer sequence
    again.  The graph is built only when a weight drops; otherwise ``g``
    itself is returned.
    """
    bad = _checked_bad_set(g, bad)
    drop, verdict = _stabilized(g, bad)
    down = PlumbingGraph({**g.weights(), **drop}, g.edges) if drop else g
    _stabilized(down, _PLAIN, (verdict.z_min, verdict.jump))
    return down


def is_bad_set(g: PlumbingGraph, bad: Iterable[VertexId]) -> bool:
    """True when pushing ``bad`` sufficiently negative makes ``g`` rational.

    That is the verdict of ``stabilize(g, bad)``, which by the lemma of the
    module docstring is the verdict of the frozen run on ``g``: read from
    that one run, stored on ``g``, with no graph built.
    """
    return _stabilized(g, _checked_bad_set(g, bad))[1].rational


def min_bad(g: PlumbingGraph) -> tuple[int, frozenset[VertexId]]:
    """Smallest bad set, by exhaustive size-ascending subset search.

    Subsets of nodes are tried before other subsets of the same size (the
    node set is always bad, so this usually wins quickly), but the search
    covers all vertex subsets because bad sets are not restricted to
    nodes.  The first hit at the smallest size is returned.
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
                return k, frozenset(cand)
    raise InternalCheckError("no bad set found; the full vertex set must be bad")
