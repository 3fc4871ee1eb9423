"""Laufer's computation sequence, rationality, and bad-vertex machinery.

The fundamental cycle Z_min of a connected negative-definite graph is the
unique minimal nonzero cycle Z >= 0 with (Z, E_v) <= 0 for every vertex.
Laufer's algorithm reaches it from l_0 = sum_v E_v by repeatedly adding a
basis vector with positive pairing:

    while some (l_i, E_v) > 0:  l_{i+1} = l_i + E_{v(i)}

The end cycle is Z_min regardless of the choices of v(i), and the graph
is Artin-rational iff every step has pairing value exactly 1 (a step with
value >= 2 is a "jump").  The run here always steps the least vertex id
with positive pairing, which fixes its steps and its first jump.  Every
l_i stays <= Z_min, so a full run takes sum_v Z_min_v - n steps, each
O(deg log n) with the worklist of ``_run``; no step count is capped.  A
verdict needs no more than the first jump: on a tree chi(l_0) = 1 and
chi(l + E_v) = chi(l) + 1 - (l, E_v), so the cycle just after a first jump
of value k has chi = 2 - k <= 0, and by Artin's criterion (rational iff
chi(l) >= 1 for every l > 0) the graph is not rational.  So a run for a
verdict stops there, and costs O(n) plus the steps up to its first jump; a
rational graph's run still goes on to Z_min.  Every verdict is
cross-checked against Artin: chi, computed from scratch, is <= 0 on the
cycle after the jump, or >= 1 on Z_min when no step jumps; a disagreement
is an internal error.

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
jump.  Hence one frozen run gives the verdict of g', and with B empty the
frozen run is the plain run: ``_stored`` runs, cross-checks and stores
every run, once per (graph, frozen set), and the empty set holds the
graph's own verdict.  A run made for the verdict alone stops at its first
jump; a caller that needs the end cycle Y (``stabilize``, Z_min, chi)
runs it once more to the end.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import GraphStructureError, InternalCheckError
from .graph import PlumbingGraph, VertexId, nodes
from .lattice import chi, is_negative_definite

DEFAULT_BAD_SET_CAP = 14  # vertices up to which the exhaustive min_bad runs
_PLAIN = frozenset()  # no vertex frozen: the key of the graph's own run


class LauferStep(NamedTuple):
    cycle_before: dict[VertexId, int]
    vertex: VertexId
    pairing_value: int


class ComputationSequence(NamedTuple):
    steps: tuple[LauferStep, ...]
    final: dict[VertexId, int]


class JumpWitness(NamedTuple):
    step: int
    vertex: VertexId
    value: int


class RationalityVerdict:
    """Laufer's verdict: ``rational``, and ``jump``, the first step of value
    >= 2 (None when the graph is rational).

    ``z_min``, the end cycle of the run, and ``chi_zmin``, chi of it, are
    read from the stored run of ``source``, (graph, frozen set), which runs
    it to its end on the first read if it stopped at its jump.  For the
    verdict of a frozen set B (the stabilized graph's, see the module
    docstring) they are Y and chi(Y).  Only this module makes verdicts.
    Equality compares all four fields.
    """

    __slots__ = ("rational", "jump", "_end", "_source")

    def __init__(self, rational, jump, source):
        self.rational = rational
        self.jump = jump
        self._end = None
        self._source = source  # (graph, frozen set) of a stored run

    def _read_end(self) -> tuple[dict[VertexId, int], Fraction]:
        if self._end is None:
            y, chi_y = _stored(*self._source, full=True)[1]
            self._end, self._source = (dict(y), chi_y), None
        return self._end

    @property
    def z_min(self) -> dict[VertexId, int]:
        return self._read_end()[0]

    @property
    def chi_zmin(self) -> Fraction:
        return self._read_end()[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalityVerdict):
            return NotImplemented
        return (self.rational, self.jump, self.z_min, self.chi_zmin) == (
            other.rational, other.jump, other.z_min, other.chi_zmin
        )

    def __repr__(self) -> str:
        return f"RationalityVerdict(rational={self.rational}, jump={self.jump})"


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


def _run(g: PlumbingGraph, record: bool, frozen=(), stop: bool = False):
    """The computation sequence from l_0 = sum_v E_v: (end cycle, recorded
    steps, first jump).  ``pos`` holds the sorted ranks (positions in
    ``g.vertices``) of the vertices with positive pairing, and ``pos[0]``
    steps; a step updates only the stepped vertex and its neighbours.
    ``frozen`` vertices never step.  With ``stop`` the run ends just after
    its first jump, and the cycle returned is the one that step reached."""
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
        i = pos[0]
        val = pair[i]
        if record:
            steps.append(LauferStep(dict(zip(vs, mult)), vs[i], val))
        mult[i] += 1
        if first_jump is None and val >= 2:
            first_jump = JumpWitness(count, vs[i], val)
            if stop:
                break
        pair[i] += weights[i]
        if pair[i] <= 0:
            del pos[0]
        for n in nbrs[i]:
            pair[n] += 1
            if pair[n] == 1 and vs[n] not in frozen:
                insort(pos, n)
        count += 1
    return dict(zip(vs, mult)), steps, first_jump


def z_min(g: PlumbingGraph) -> tuple[dict[VertexId, int], ComputationSequence]:
    """Fundamental cycle plus the full computation sequence, which steps
    the least vertex id with positive pairing.  The run is cross-checked
    and stored on ``g`` like ``is_rational``'s."""
    _check_laufer_input(g)
    mult, steps, jump = _run(g, record=True)
    _stored(g, _PLAIN, run=(dict(mult), jump))
    return mult, ComputationSequence(tuple(steps), dict(mult))


def zmin_multiplicities(g: PlumbingGraph) -> dict[VertexId, int]:
    """Z_min without step recording: the stored run's."""
    _check_laufer_input(g)
    return dict(_stored(g, _PLAIN, full=True)[1][0])


def is_rational(g: PlumbingGraph) -> RationalityVerdict:
    """Rationality via Laufer jumps, cross-checked against Artin.

    The verdict comes from the store on ``g``, and its run stops at the
    first jump (see ``RationalityVerdict`` for Z_min).
    """
    _check_laufer_input(g)
    return _verdict(g, _PLAIN)


def _artin(g, cyc, jump, stopped: bool) -> Fraction:
    """chi(cyc) on ``g``, checked against the Laufer verdict of a run that
    reached ``cyc``: <= 0 just after the first jump of a stopped run, and
    >= 1 iff no step jumped at the end of a full run."""
    chi_l = chi(g, cyc)
    if not (chi_l <= 0 if stopped else (jump is None) == (chi_l >= 1)):
        raise InternalCheckError(
            f"Laufer ({jump}) and Artin (chi={chi_l}) criteria disagree"
        )
    return chi_l


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


def _stored(g: PlumbingGraph, bad: frozenset, full: bool = False, run=None):
    """The run of ``g`` with ``bad`` frozen, on a graph known to pass
    ``_check_laufer_input``, as (first jump, end): ``end`` is None when the
    run stopped at its jump, else (end cycle Y, chi(Y)).  By the lemma of
    the module docstring it is the stabilized graph's run; with ``bad``
    empty it is the graph's own.

    Runs are stored on ``g`` by ``bad`` and cross-checked against Artin when
    made.  A run stops at its first jump unless ``full`` asks for Y, which
    runs a stopped entry again to the end.  ``run``, the (Y, first jump) of
    a full run the caller has already made, is stored in place of a new
    run.  Callers must not change what is returned."""
    if g._stabilized is None:
        g._stabilized = {}
    hit = g._stabilized.get(bad)
    full = full or run is not None
    if hit is None or full and hit[1] is None:
        if run is None:
            y, _, jump = _run(g, record=False, frozen=bad, stop=not full)
        else:
            y, jump = run
        if hit is not None and hit[0] != jump:
            raise InternalCheckError(f"full run jumps at {jump}, stopped run at {hit[0]}")
        # chi(l) on g is chi(l) on the lowered graph: l is 1 on bad, and a
        # vertex at multiplicity 1 adds -2 to (K, l) + (l, l) whatever its
        # weight
        stopped = not full and jump is not None
        chi_y = _artin(g, y, jump, stopped)
        hit = g._stabilized[bad] = (jump, None if stopped else (y, chi_y))
    return hit


def _verdict(g: PlumbingGraph, bad: frozenset) -> RationalityVerdict:
    """The stored verdict of the run frozen at ``bad``, wrapped with ``g``
    for a caller to keep: the store never holds the graph itself."""
    jump = _stored(g, bad)[0]
    return RationalityVerdict(jump is None, jump, (g, bad))


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
    graph's run, so it is stored on the graph returned, under the empty
    set: ``is_rational`` on it runs no Laufer sequence again.  The graph is
    built only when a weight drops; otherwise ``g`` itself is returned.
    """
    bad = _checked_bad_set(g, bad)
    jump, (y, _) = _stored(g, bad, full=True)
    ws = g.weights()
    low = {v: -sum(map(y.__getitem__, g.neighbors(v))) for v in bad}
    drop = {v: w for v, w in low.items() if w < ws[v]}
    down = PlumbingGraph({**ws, **drop}, g.edges) if drop else g
    _stored(down, _PLAIN, run=(y, jump))
    return down


def is_bad_set(g: PlumbingGraph, bad: Iterable[VertexId]) -> bool:
    """True when pushing ``bad`` sufficiently negative makes ``g`` rational.

    That is the verdict of ``stabilize(g, bad)``, which by the lemma of the
    module docstring is the verdict of the frozen run on ``g``: read from
    that one run, stopped at its first jump and stored on ``g``, with no
    graph built.
    """
    return _verdict(g, _checked_bad_set(g, bad)).rational


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
