"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the implementation's code paths:
determinants come from generic Gaussian elimination (and cofactor
expansion for tiny matrices) instead of the tree recursion, definiteness
from Sylvester minor signs and the all-principal-minors PSD test,
Z_min from brute-force search over an integer box, tree enumeration from
Pruefer sequences, and continued fractions from the convergent
recurrence.  The Laufer run, the realizability search and the Brieskorn
Seifert data also have plain reference versions that rescan everything,
the Laufer run a second one with a last-in-first-out worklist, and
``minimize`` has its blow-down loop that builds a graph per step, and
``fresh_ids`` its loop that scans the ids it has found.  The rescanning
Laufer run can also step in a random order: the library always steps the
least id, so that run alone shows that Z_min and the verdict do not
depend on the order.  A verdict, which the library reads off a run stopped at its first jump, has
the full-run route of a least-id run carried on to Z_min on a heap.  The
bad-set verdict has the two-run route: lower the weights, build the graph
afresh and run Laufer on it.  chi comes from the canonical cycle, solved
from the adjunction relations, in place of the adjunction sum.  The
monotonicity spot checks of the induction live here too, as no verdict
needs them, and so do the pairing a^T I b and ``with_weight``, which only
the tests use.
The constructor's forest checks have their route of one loop over the
edges with a union-find, where the constructor counts components.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, gcd
from typing import NamedTuple

from plumbcalc.errors import GraphStructureError, InternalCheckError
from plumbcalc.graph import (
    _ID_RE,
    PlumbingGraph,
    blow_down,
    canonical_code,
    delete,
    nodes,
    subgraph,
)
from plumbcalc.lattice import (
    _check_support,
    canonical_cycle,
    chi,
    determinant,
    intersection_form,
)
from plumbcalc.laufer import (
    DEFAULT_BAD_SET_CAP,
    JumpWitness,
    is_bad_set,
    is_rational,
    min_bad,
    zmin_multiplicities,
)


def with_weight(g: PlumbingGraph, v, w) -> PlumbingGraph:
    """Copy of ``g`` with the decoration of ``v`` replaced."""
    ws = g.weights()
    if v not in ws:
        raise GraphStructureError(f"unknown vertex {v!r}")
    ws[v] = w
    return PlumbingGraph(ws, g.edges)


def reference_build(weights, edges):
    """The forest checks of the constructor as one loop over the edges,
    with a union-find for cycles: the (normalized weights, edge set, sorted
    adjacency) of the graph, or the first fault's ``GraphStructureError``."""
    ws = {}
    for v, w in weights.items():
        if not isinstance(v, str) or not _ID_RE.fullmatch(v):
            raise GraphStructureError(f"invalid vertex id {v!r}")
        w = Fraction(w)
        ws[v] = w.numerator if w.denominator == 1 else w
    adj = {v: [] for v in ws}
    parent = {v: v for v in ws}  # union-find for cycle detection

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    eset = set()
    for a, b in edges:
        if a == b:
            raise GraphStructureError(f"loop at vertex {a!r}")
        if a not in ws or b not in ws:
            missing = a if a not in ws else b
            raise GraphStructureError(f"edge to undeclared vertex {missing!r}")
        e = (a, b) if a < b else (b, a)
        if e in eset:
            raise GraphStructureError(f"multi-edge between {a!r} and {b!r}")
        ra, rb = find(a), find(b)
        if ra == rb:
            raise GraphStructureError(f"cycle detected through edge {a!r}-{b!r}")
        parent[ra] = rb
        eset.add(e)
        adj[a].append(b)
        adj[b].append(a)
    return ws, frozenset(eset), {v: tuple(sorted(ns)) for v, ns in adj.items()}


def reference_fresh_ids(g: PlumbingGraph, prefix: str, count: int) -> list:
    """``fresh_ids`` as the loop that also scans the ids found so far."""
    out = []
    i = 1
    while len(out) < count:
        cand = f"{prefix}{i}"
        if not g.has_vertex(cand) and cand not in out:
            out.append(cand)
        i += 1
    return out


def pairing(g: PlumbingGraph, a, b) -> Fraction:
    """Exact value of a^T I b."""
    _check_support(g, a)
    _check_support(g, b)
    total = Fraction(0)
    for v, av in a.items():
        if av:
            bv = b.get(v, 0)
            if bv:
                total += g.weight(v) * av * bv
    for u, w in g.edges:
        au, aw = a.get(u, 0), a.get(w, 0)
        bu, bw = b.get(u, 0), b.get(w, 0)
        total += au * bw + aw * bu
    return Fraction(total)


def matrix_of(g: PlumbingGraph, sign: int = -1) -> list[list[Fraction]]:
    """Dense matrix of sign*I in sorted-vertex order."""
    _, rows = intersection_form(g)
    return [[sign * x for x in row] for row in rows]


def det_gauss(rows: list[list[Fraction]]) -> Fraction:
    """Generic fraction Gaussian elimination with row pivoting."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def det_cofactor(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[r][c] for c in range(n) if c != j] for r in range(1, n)]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def oracle_det(g: PlumbingGraph) -> Fraction:
    """det(-I) via generic elimination."""
    return det_gauss(matrix_of(g))


def det_edge_identity_check(g: PlumbingGraph, e) -> bool:
    """Exact check of det(G) = det(G - e) - det(G - [v,w]) for an edge,
    a self-test of the determinant pass."""
    v, w = e
    if not g.has_edge(v, w):
        raise GraphStructureError(f"edge {v!r}-{w!r} not in graph")
    lhs = determinant(g)
    rhs = determinant(delete(g, edges=[e])) - determinant(delete(g, vertices=[v, w]))
    return lhs == rhs


def leading_minors(rows: list[list[Fraction]], order: list[int]) -> list[Fraction]:
    out = []
    for k in range(1, len(order) + 1):
        sub = [[rows[order[i]][order[j]] for j in range(k)] for i in range(k)]
        out.append(det_gauss(sub))
    return out


def oracle_is_negative_definite(g: PlumbingGraph, order=None) -> bool:
    """Sylvester: -I is positive definite iff all leading minors > 0."""
    rows = matrix_of(g)
    order = list(range(len(rows))) if order is None else list(order)
    return all(minor > 0 for minor in leading_minors(rows, order))


def oracle_is_negative_semidefinite(g: PlumbingGraph) -> bool:
    """-I positive semidefinite iff every principal minor is >= 0 (and not
    definite, which the caller distinguishes via the determinant)."""
    rows = matrix_of(g)
    n = len(rows)
    for k in range(1, n + 1):
        for idx in combinations(range(n), k):
            sub = [[rows[i][j] for j in idx] for i in idx]
            if det_gauss(sub) < 0:
                return False
    return True


def oracle_zmin(g: PlumbingGraph, box: int = 10) -> dict[str, int]:
    """Brute-force unique minimal anti-nef cycle with entries in [1, box].

    Collects every positive cycle with all pairings <= 0, takes the
    componentwise minimum, and checks that the minimum itself qualifies
    (so it is the unique minimal one)."""
    vs = g.vertices
    weights = {v: g.weight(v) for v in vs}
    anti_nef = []
    for vec in product(range(1, box + 1), repeat=len(vs)):
        z = dict(zip(vs, vec))
        ok = True
        for v in vs:
            pair = weights[v] * z[v] + sum(z[n] for n in g.neighbors(v))
            if pair > 0:
                ok = False
                break
        if ok:
            anti_nef.append(z)
    assert anti_nef, "box too small: no anti-nef cycle found"
    minimum = {v: min(z[v] for z in anti_nef) for v in vs}
    assert minimum in anti_nef, "componentwise minimum is not anti-nef"
    return minimum


def pruefer_trees(n: int):
    """All labeled trees on n vertices as edge lists."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        heap = [i for i in range(n) if degree[i] == 1]
        heapq.heapify(heap)
        deg = degree[:]
        edges = []
        for x in seq:
            leaf = heapq.heappop(heap)
            edges.append((leaf, x))
            deg[leaf] -= 1
            deg[x] -= 1
            if deg[x] == 1:
                heapq.heappush(heap, x)
        u, v = (i for i in range(n) if deg[i] == 1)
        edges.append((u, v))
        yield edges


def oracle_census(max_vertices: int, weight_min: int, keep=None):
    """All decorated trees up to isomorphism by brute force, optionally
    filtered by ``keep`` (defaults to negative definite)."""
    if keep is None:
        keep = oracle_is_negative_definite
    seen = set()
    out = []
    for n in range(1, max_vertices + 1):
        for edges in pruefer_trees(n):
            for ws in product(range(weight_min, 0), repeat=n):
                g = PlumbingGraph(
                    {f"t{i}": ws[i] for i in range(n)},
                    [(f"t{a}", f"t{b}") for a, b in edges],
                )
                if not keep(g):
                    continue
                code = canonical_code(g)
                if code not in seen:
                    seen.add(code)
                    out.append(g)
    return out


def cf_eval_convergents(terms) -> Fraction:
    """Evaluate [e_1, ..., e_s] through the convergent recurrence
    p_k = e_k p_{k-1} - p_{k-2} (independent of right-to-left folding)."""
    p_prev, p = Fraction(1), Fraction(terms[0])
    q_prev, q = Fraction(0), Fraction(1)
    for e in terms[1:]:
        p_prev, p = p, e * p - p_prev
        q_prev, q = q, e * q - q_prev
    return p / q


def oracle_pinkham(sd, l_max: int):
    """Unbounded-style scan of the floor inequality up to l_max."""
    witnesses = []
    for l in range(l_max + 1):
        lhs = sum(
            Fraction(-l * omega, alpha).__floor__() for alpha, omega in sd.legs
        )
        if lhs <= l * sd.e0 - 2:
            witnesses.append(l)
    return witnesses


def reference_laufer_run(g: PlumbingGraph, rng=None, frozen=()):
    """Laufer's computation sequence, rescanning every vertex in id order
    for the positive pairings before each step; ``frozen`` vertices never
    step.  Returns (Z_min, steps as (cycle before, vertex, pairing value),
    first jump as (step, vertex, value) or None)."""
    weights = {v: int(g.weight(v)) for v in g.vertices}
    mult = {v: 1 for v in g.vertices}
    pair = {v: weights[v] + g.degree(v) for v in g.vertices}
    steps, jump = [], None
    while True:
        pos = [v for v in g.vertices if pair[v] > 0 and v not in frozen]
        if not pos:
            return mult, steps, jump
        v = pos[0] if rng is None else rng.choice(pos)
        steps.append((dict(mult), v, pair[v]))
        if jump is None and pair[v] >= 2:
            jump = (len(steps) - 1, v, pair[v])
        mult[v] += 1
        pair[v] += weights[v]
        for n in g.neighbors(v):
            pair[n] += 1


class ReferenceVerdict(NamedTuple):
    """The four fields of a ``RationalityVerdict``, made apart from the
    library: compare one with ``verdict_fields(v)``."""

    rational: bool
    jump: JumpWitness | None
    z_min: dict
    chi_zmin: Fraction


def verdict_fields(v) -> ReferenceVerdict:
    """The four fields of a library verdict, to compare with a reference."""
    return ReferenceVerdict(v.rational, v.jump, v.z_min, v.chi_zmin)


def reference_verdict(g: PlumbingGraph, frozen=()) -> ReferenceVerdict:
    """The verdict of the least-id Laufer run carried on to its end, with
    ``frozen`` vertices never stepping: the first jump, the end cycle and
    chi of it.  The run keeps a heap of the vertices with positive pairing,
    a stale entry dropped when it reaches the top, where the library keeps
    a sorted list and stops at the first jump; unlike
    ``reference_laufer_run`` it records no steps, so it serves runs of
    millions of steps."""
    weights = {v: int(g.weight(v)) for v in g.vertices}
    mult = dict.fromkeys(g.vertices, 1)
    pair = {v: weights[v] + g.degree(v) for v in g.vertices}
    heap = [v for v in g.vertices if pair[v] > 0 and v not in frozen]  # sorted: a heap
    jump, step = None, 0
    while heap:
        v = heap[0]
        if pair[v] <= 0:
            heapq.heappop(heap)
            continue
        if jump is None and pair[v] >= 2:
            jump = JumpWitness(step, v, pair[v])
        mult[v] += 1
        pair[v] += weights[v]
        for n in g.neighbors(v):
            pair[n] += 1
            if pair[n] == 1 and n not in frozen:
                heapq.heappush(heap, n)
        step += 1
    return ReferenceVerdict(jump is None, jump, mult, chi(g, mult))


def reference_zmin_lifo(g: PlumbingGraph) -> dict[str, int]:
    """Z_min by a Laufer run that steps the vertex last turned positive: a
    stack of vertices, each pushed when its pairing reaches 1.  Another
    pick order than the library's least id, so another route to the end
    cycle, which does not depend on the order."""
    weights = {v: int(g.weight(v)) for v in g.vertices}
    mult = dict.fromkeys(g.vertices, 1)
    pair = {v: weights[v] + g.degree(v) for v in g.vertices}
    stack = [v for v in g.vertices if pair[v] > 0]
    while stack:
        v = stack[-1]
        if pair[v] <= 0:
            stack.pop()
            continue
        mult[v] += 1
        pair[v] += weights[v]
        for n in g.neighbors(v):
            pair[n] += 1
            if pair[n] == 1:
                stack.append(n)
    return mult


def reference_minimize(g: PlumbingGraph) -> PlumbingGraph:
    """``minimize`` by ``blow_down``, one graph per step, rescanning for
    the least id of weight -1 and valency <= 2 before each step."""
    if not g.is_connected():
        raise GraphStructureError("minimize requires a connected graph")
    while len(g) > 1:
        cand = next(
            (v for v in g.vertices if g.weight(v) == -1 and g.degree(v) <= 2),
            None,
        )
        if cand is None:
            break
        g = blow_down(g, cand)
    return g


def reference_stabilize(g: PlumbingGraph, bad) -> PlumbingGraph:
    """Bad-set stabilization by decrement loop: lower every vertex of
    ``bad`` whose multiplicity in Z_min exceeds 1 by one, rerun Laufer,
    repeat until all have multiplicity 1."""
    bad = sorted(set(bad))
    for v in bad:
        if not g.has_vertex(v):
            raise GraphStructureError(f"unknown vertex {v!r}")
    if not bad:
        return g
    max_w = max(abs(int(g.weight(v))) for v in g.vertices)
    cap = 4 * len(g) * max(1, max_w)
    spent = 0
    while True:
        z = zmin_multiplicities(g)
        over = [v for v in bad if z[v] > 1]
        if not over:
            return g
        for v in over:
            g = with_weight(g, v, g.weight(v) - 1)
            spent += 1
            if spent > cap:
                raise InternalCheckError("bad-set stabilization exceeded cap")


def reference_bad_verdict(g: PlumbingGraph, bad) -> ReferenceVerdict:
    """The verdict of ``stabilize(g, bad)`` by two runs: a rescanning run
    with ``bad`` frozen at multiplicity 1 gives the lowered weights
    e'_v = min(e_v, -sum_{n~v} Y_n), the lowered graph is built afresh from
    plain weights and edges, so nothing is stored on it, and
    ``reference_verdict`` runs Laufer on it again, to its end."""
    y, _, _ = reference_laufer_run(g, frozen=set(bad))
    ws = g.weights()
    for v in bad:
        ws[v] = min(ws[v], -sum(y[n] for n in g.neighbors(v)))
    return reference_verdict(PlumbingGraph(ws, g.edges))


def reference_chi(g: PlumbingGraph, cyc) -> Fraction:
    """chi(l) = -((K + l), l) / 2 with K the canonical cycle, the rational
    solution of (K + E_v, E_v) = -2, so only invertible forms qualify."""
    k = canonical_cycle(g)
    return -(pairing(g, k, cyc) + pairing(g, cyc, cyc)) / 2


def reference_realizable(x: Fraction, y: Fraction, z: Fraction):
    """Every coprime m > a > 0 in Fraction arithmetic, permutations in
    itertools order, then m and a ascending: (m, a, permutation) of the
    first hit, or None."""
    for px, py, pz in permutations((x, y, z)):
        for m in range(2, ceil(1 / pz)):
            for a in range(1, m):
                if gcd(a, m) != 1:
                    continue
                if px < Fraction(a, m) and py < Fraction(m - a, m) and pz < Fraction(1, m):
                    return m, a, (px, py, pz)
    return None


def reference_brieskorn(p: int, q: int, r: int):
    """Every coprime omega triple with an integer e0 solving
    e0*pqr + sum_i omega_i * (pqr/alpha_i) = -1, by exhaustive scan."""
    big = p * q * r
    found = []
    for o1, o2, o3 in product(range(1, p), range(1, q), range(1, r)):
        if gcd(o1, p) == gcd(o2, q) == gcd(o3, r) == 1:
            s = o1 * (big // p) + o2 * (big // q) + o3 * (big // r)
            if (-1 - s) % big == 0:
                found.append(((-1 - s) // big, ((p, o1), (q, o2), (r, o3))))
    return found


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
