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
l_i stays <= Z_min, so a full run takes sum_v Z_min_v - n steps; no step
count is capped.  A verdict needs no more than the first jump: on a tree
chi(l_0) = 1 and chi(l + E_v) = chi(l) + 1 - (l, E_v), so the cycle just
after a first jump of value k has chi = 2 - k <= 0, and by Artin's
criterion (rational iff chi(l) >= 1 for every l > 0) the graph is not
rational.  So a run for a verdict stops there; a rational graph's run
still goes on to Z_min.  A run keeps only x = l - l_0 and the pairings its
steps change, so past one O(n) start record per graph it costs
O(p + steps * deg log n), p the vertices positive on l_0.  Every verdict
is cross-checked against Artin: chi, computed from scratch, is <= 0 on
the cycle after the jump, or >= 1 on Z_min when no step jumps; a
disagreement is an internal error.  The check runs in integers, as 2 chi:
2 chi(l) = -((K + l), l) is an even int on an integer cycle (adjunction,
``lattice._k_plus_l_l``).  As chi(a + b) = chi(a) + chi(b) - (a, b),
2 chi(l_0 + x) = 2(|V| - |E|) - ((K + x), x) - 2 sum_v x_v (e_v + deg v):
by adjunction the weights cancel in (K, l_0) + (l_0, l_0) = -2|V| + 2|E|.
Each term reads the graph's weights and edges and x alone, never the
run's pairings, in O(steps * deg).  Only a full run keeps its chi, as a
``Fraction``.

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
a run once per (graph, frozen set), and the empty set holds the
graph's own verdict.  A caller that needs the end cycle Y (``stabilize``,
Z_min, chi) of a stopped run runs it once more to the end.

Prefix lemma: let S(B), the prefix of a run frozen at B that jumps, be
the set of vertices it picks at steps 0 to J, where J is the step of its
first jump, included.  Take B0 in B, with the B0-run jumping and B - B0
disjoint from S(B0).  Then the run frozen at B has the first jump of the
run frozen at B0, at the same step, vertex and value, so B is not bad.
Proof: both runs start from l_0.  While their cycles agree, the vertices
of B - B0 sit at multiplicity 1 in both and every pairing agrees.  At a
step k <= J the B0-run picks the least positive vertex off B0; it is in
S(B0), so off B, and it is also the least positive vertex off B, which
the B-run picks, with the same value.  So the runs agree through step J.
With B0 empty: a single vertex v can be bad only if v is in S(empty), and
for every other v the run frozen at {v} jumps where the plain run does,
which ``_vertex_jump`` reads with no run made.  Every stored run keeps its
prefix, supp x at the jump step, beside its jump.

Least bad sets lie on the prefix tree: level 0 is {empty}, and level k+1
holds every B + {b}, B on level k and b in S(B), so every set of level k
has size k (a frozen vertex never steps).  Take a bad set B of the least
size m and B_i in B with |B_i| < m: B_i is not bad, so if B - B_i missed
S(B_i), B would jump where B_i does.  So B_{i+1} = B_i + {b} with b in
(B - B_i) & S(B_i) reaches B from B_0 = empty in m steps, and no lower
level holds a bad set: the first bad set of ``_least_bad``, which tries
each level in ``min_bad``'s order, is the one an exhaustive search finds.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import GraphStructureError, InternalCheckError
from .graph import PlumbingGraph, VertexId, nodes
from .lattice import _k_plus_l_l, is_negative_definite

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
    read on every access from the one store of runs, the entry of
    ``source``, (graph, frozen set); a run stopped at its jump is run to its
    end once, on the first read.  ``z_min`` is a fresh dict each time.  For
    the verdict of a frozen set B (the stabilized graph's, see the module
    docstring) they are Y and chi(Y).  Only this module makes verdicts.
    Equality compares all four fields.
    """

    __slots__ = ("rational", "jump", "_source")

    def __init__(self, rational, jump, source):
        self.rational = rational
        self.jump = jump
        self._source = source  # (graph, frozen set) of a stored run

    @property
    def z_min(self) -> dict[VertexId, int]:
        return dict(_stored(*self._source, full=True)[2][0])

    @property
    def chi_zmin(self) -> Fraction:
        return _stored(*self._source, full=True)[2][1]

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


def _run_arrays(g: PlumbingGraph) -> list:
    """Every run's start record, stored on ``g`` by ``_run`` and changed by
    no run: the sorted ids positive on l_0, where (l_0, E_v) = e_v + deg v."""
    ws, adj = g._weights, g._adj
    return [v for v in g.vertices if ws[v] + len(adj[v]) > 0]


def _run(g: PlumbingGraph, record: bool, frozen=_PLAIN, stop: bool = False):
    """The computation sequence from l_0 = sum_v E_v: (x = l - l_0 for the
    end cycle l, recorded steps, first jump, prefix), the prefix being the
    vertices stepped up to the first jump, included (None when no step
    jumps).  ``pos`` holds the sorted ids with positive pairing, starting
    from the start record ``g._arrays``, and ``pos[0]``, the least, steps; a
    step updates the stepped vertex and its neighbours in ``pair``, which
    holds only the pairings that changed: an untouched vertex pairs
    e_v + deg v with l_0.  ``frozen`` vertices never step.  With ``stop``
    the run ends just after its first jump, at the cycle that step reached."""
    if g._arrays is None:
        g._arrays = _run_arrays(g)
    weights, adj = g._weights, g._adj
    pos = [v for v in g._arrays if v not in frozen]
    x, pair = {}, {}  # l - l_0 and the changed pairings, by vertex id
    steps: list[LauferStep] = []
    first_jump = prefix = None
    while pos:
        v = pos[0]
        val = pair[v] if v in pair else weights[v] + len(adj[v])
        if record:
            steps.append(LauferStep(_cycle(g, x), v, val))
        x[v] = x.get(v, 0) + 1
        if first_jump is None and val >= 2:
            first_jump = JumpWitness(sum(x.values()) - 1, v, val)
            prefix = frozenset(x)
            if stop:
                break
        pair[v] = val = val + weights[v]
        if val <= 0:
            del pos[0]
        for n in adj[v]:
            pair[n] = p = (pair[n] if n in pair else weights[n] + len(adj[n])) + 1
            if p == 1 and n not in frozen:
                insort(pos, n)
    return x, steps, first_jump, prefix


def _cycle(g: PlumbingGraph, x) -> dict[VertexId, int]:
    """The cycle l_0 + x, on every vertex in ``g.vertices`` order."""
    return {v: x.get(v, 0) + 1 for v in g.vertices}


def z_min(g: PlumbingGraph) -> tuple[dict[VertexId, int], ComputationSequence]:
    """Fundamental cycle plus the full computation sequence, which steps
    the least vertex id with positive pairing.  The run is cross-checked
    and stored on ``g`` like ``is_rational``'s."""
    _check_laufer_input(g)
    x, steps, jump, prefix = _run(g, record=True)
    mult = _stored(g, _PLAIN, run=(x, jump, prefix))[2][0]
    return dict(mult), ComputationSequence(tuple(steps), dict(mult))


def zmin_multiplicities(g: PlumbingGraph) -> dict[VertexId, int]:
    """Z_min without step recording: the stored run's."""
    _check_laufer_input(g)
    return dict(_stored(g, _PLAIN, full=True)[2][0])


def is_rational(g: PlumbingGraph) -> RationalityVerdict:
    """Rationality via Laufer jumps, cross-checked against Artin.

    The verdict comes from the store on ``g``, and its run stops at the
    first jump (see ``RationalityVerdict`` for Z_min).
    """
    _check_laufer_input(g)
    return _verdict(g, _PLAIN)


def _artin(g, x, jump, stopped: bool) -> int:
    """chi(l_0 + x) on ``g``, an int (module docstring), checked against the
    verdict of a run that reached l_0 + x: <= 0 just after the first jump of
    a stopped run, and >= 1 iff no step jumped at the end of a full run."""
    l0_x = sum(k * (g._weights[v] + len(g._adj[v])) for v, k in x.items())
    # |V| - |E| of a forest; ((K + x), x) is even
    chi_l = g._tree_count - l0_x - _k_plus_l_l(g, x) // 2
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
    ``_check_laufer_input``, as (first jump, prefix, end): the prefix is
    S(bad) of the prefix lemma, None when no step jumps, and ``end`` is None
    when the run stopped at its jump, else (end cycle Y, chi(Y)).  By the
    lemma of the module docstring it is the stabilized graph's run; with
    ``bad`` empty it is the graph's own.

    Runs are stored on ``g`` by ``bad`` and cross-checked against Artin when
    made.  A run stops at its first jump unless ``full`` asks for Y, which
    runs a stopped entry again to the end and alone builds Y.  ``run``, the
    (Y - l_0, first jump, prefix) of a full run the caller has made, is
    stored in place of a new run.  Callers must not change what is returned."""
    if g._stabilized is None:
        g._stabilized = {}
    hit = g._stabilized.get(bad)
    full = full or run is not None
    if hit is None or full and hit[2] is None:
        if run is None:
            x, _, jump, prefix = _run(g, record=False, frozen=bad, stop=not full)
        else:
            x, jump, prefix = run
        if hit is not None and hit[:2] != (jump, prefix):
            raise InternalCheckError(
                f"full run jumps at {jump} after {prefix}, stopped run at {hit[:2]}"
            )
        # chi(l) on g is chi(l) on the lowered graph: x is 0 on bad, and
        # no term of the check reads a weight off supp x
        stopped = not full and jump is not None
        chi_y = _artin(g, x, jump, stopped)
        end = None if stopped else (_cycle(g, x), Fraction(chi_y))
        hit = g._stabilized[bad] = (jump, prefix, end)
    return hit


def _verdict(g: PlumbingGraph, bad: frozenset) -> RationalityVerdict:
    """The stored verdict of the run frozen at ``bad``, wrapped with ``g``
    for a caller to keep: the store never holds the graph itself."""
    jump = _stored(g, bad)[0]
    return RationalityVerdict(jump is None, jump, (g, bad))


def _vertex_jump(g: PlumbingGraph, v: VertexId) -> JumpWitness | None:
    """The first jump of the run frozen at {v}, None when {v} is bad.  By the
    prefix lemma of the module docstring it is the plain run's first jump
    when ``g`` is not rational and v is off S(empty): then no frozen run is
    made."""
    bad = _checked_bad_set(g, [v])
    prefix = _stored(g, _PLAIN)[1]
    return _stored(g, bad if prefix is None or v in prefix else _PLAIN)[0]


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
    jump, prefix, (y, _) = _stored(g, bad, full=True)
    ws = g.weights()
    low = {v: -sum(map(y.__getitem__, g._adj[v])) for v in bad}
    drop = {v: w for v, w in low.items() if w < ws[v]}
    down = PlumbingGraph({**ws, **drop}, g.edges) if drop else g
    _stored(down, _PLAIN, run=({v: k - 1 for v, k in y.items() if k > 1}, jump, prefix))
    return down


def is_bad_set(g: PlumbingGraph, bad: Iterable[VertexId]) -> bool:
    """True when pushing ``bad`` sufficiently negative makes ``g`` rational.

    That is the verdict of ``stabilize(g, bad)``, which by the lemma of the
    module docstring is the verdict of the frozen run on ``g``: read from
    that one run, stopped at its first jump and stored on ``g``, with no
    graph built.
    """
    return _verdict(g, _checked_bad_set(g, bad)).rational


def _tried(g: PlumbingGraph, ids: tuple) -> tuple:
    """(first jump, prefix) of the run frozen at sorted ``ids``: stored for at
    most one vertex, as ``_vertex_jump`` reads it again, else run and checked."""
    if len(ids) <= 1:
        return _stored(g, frozenset(ids))[:2]
    x, _, jump, prefix = _run(g, record=False, frozen=frozenset(ids), stop=True)
    _artin(g, x, jump, jump is not None)
    return jump, prefix


def _least_bad(g: PlumbingGraph, most: int) -> tuple[int, frozenset] | None:
    """(m, the least bad set of size m) when m <= ``most``, else None: the
    prefix tree of the module docstring, level by level, nodes-only sets
    first, then by sorted ids, the order of sorted id tuples.  The input is
    checked once; each set is tried once, by ``_tried``, and adds its children
    to the next level: the search files no run of a set of two or more vertices."""
    _check_laufer_input(g)
    node_set = set(nodes(g))
    level = [()]
    for k in range(most + 1):
        sets = set()
        for ids in level:
            jump, prefix = _tried(g, ids)
            if jump is None:
                return k, frozenset(ids)
            if k < most:
                sets.update(tuple(sorted((*ids, v))) for v in prefix)
        level = sorted(sets, key=lambda ids: (not node_set.issuperset(ids), ids))
    return None


def min_bad(g: PlumbingGraph) -> tuple[int, frozenset[VertexId]]:
    """Smallest bad set: the least in size, then subsets of nodes before the
    others, then by sorted ids.  The search walks the prefix tree of the
    module docstring: one frozen run per set of the levels below m, and of
    level m up to the answer."""
    return _least_bad(g, len(g))
