"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the implementation's code paths:
determinants come from dense fraction-free (Bareiss) elimination over
the rows scaled to integers (and cofactor expansion for tiny matrices)
instead of the tree recursion, definiteness from Sylvester minor signs
and the all-principal-minors PSD test, Z_min from brute-force search
over an integer box, tree enumeration from Pruefer sequences, and
continued fractions from the convergent recurrence.  The Laufer run,
the realizability search and the Brieskorn Seifert data also have
plain reference versions that rescan everything, the Laufer run a
second one with a last-in-first-out worklist, and
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
needs them, and so do the pairing a^T I b, ``with_weight`` and the
(2, m, n) rule for Brieskorn covers, 1/2 + 1/m + 1/n > 1 checked against
Laufer, which only the tests use.
The constructor's forest checks have their route of one loop over the
edges with a union-find, where the constructor counts components, the
component sets a union-find of their own, where the graph splits its
rooted order at the roots, and the canonical code its route that builds
each component as a graph and finds its centroids by deletion, where the
library reads every tree's centroids off one fold over the forest, and
the parser its line-by-line loop, which checks each line as it reads it,
where the library tokenizes serialized text once and leaves every check
to the constructor.  A cut
has the route that builds both sides as subgraphs and reads det_w and
det_w_minus from the graphs side_w and side_w - w, and the negative
continued fraction its ``Fraction`` loop, checked by ``cf_eval``, where
the library expands and checks in integers.  ``cf_eval``, the evaluation
of continued fractions term by term, lives here only: the Seifert data of
a star has the route that evaluates each leg's terms with it, where the
library reads the leg's (D, P).  The m <= 1 test of a certificate leaf and
the jump of a Case1 cut vertex have the route that makes the frozen run of
every vertex, where the library takes the plain run's jump for a vertex
off its prefix, and the prefix itself the steps of the rescanning run.
The least bad set has the exhaustive search by size, where the library
walks the prefix tree, and that walk its route with frozenset levels and
every run filed in the graph's store, where the library files none of two
or more vertices.  The census order has the route that sorts each
vertex count whole, where the library sorts it one root weight at a time.
The checker's claim comparison has the route that compares the claims'
JSON forms, where the library compares the bool-ness of their values.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import ceil, gcd, lcm
from typing import NamedTuple

from plumbcalc.census import _RootedTrees, _tree_code, _validate_limits
from plumbcalc.classify import DEFAULT_BAD_SET_CAP
from plumbcalc.errors import GraphStructureError, InternalCheckError, ParseError
from plumbcalc.graph import (
    _ID_RE,
    PlumbingGraph,
    _parse_weight,
    blow_down,
    canonical_code,
    delete,
    fresh_ids,
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
    JumpWitness,
    _check_laufer_input,
    _stored,
    is_bad_set,
    is_rational,
    min_bad,
    stabilize,
    zmin_multiplicities,
)
from plumbcalc.seifert import (
    ContinuedFraction,
    SeifertData,
    brieskorn_seifert,
    seifert_to_graph,
)
from plumbcalc.surgery import _claim_to_json, attach_string


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


def reference_parse_graph(text: str) -> PlumbingGraph:
    """``parse_graph`` as one loop that checks each line as it reads it,
    with a union-find for cycles: the graph, or the first faulty line's
    ``ParseError``, a cycle's only when no line has another fault."""
    weights = {}
    edges = []
    seen = set()
    parent = {}  # union-find for cycle detection

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    cycle = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "vertex":
            if len(parts) != 3:
                raise ParseError("expected 'vertex <id> <weight>'", lineno)
            _, vid, wtext = parts
            if not _ID_RE.fullmatch(vid):
                raise ParseError(f"invalid vertex id {vid!r}", lineno)
            if vid in weights:
                raise ParseError(f"duplicate vertex {vid!r}", lineno)
            try:
                weights[vid] = _parse_weight(wtext)
            except ValueError:
                raise ParseError(f"invalid weight {wtext!r}", lineno) from None
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise ParseError("expected 'edge <id> <id>'", lineno)
            _, a, b = parts
            if a == b:
                raise ParseError(f"loop at vertex {a!r}", lineno)
            if a not in weights or b not in weights:
                missing = a if a not in weights else b
                raise ParseError(f"edge to undeclared vertex {missing!r}", lineno)
            e = (a, b) if a < b else (b, a)
            if e in seen:
                raise ParseError(f"multi-edge between {a!r} and {b!r}", lineno)
            seen.add(e)
            edges.append((a, b))
            ra, rb = find(a), find(b)
            if ra == rb and cycle is None:
                cycle = ParseError(f"cycle detected through edge {a!r}-{b!r}", lineno)
            parent[ra] = rb
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno)
    if cycle is not None:
        raise cycle
    try:
        return PlumbingGraph(weights, edges)
    except GraphStructureError as exc:
        raise ParseError(str(exc)) from exc


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


def reference_components(g: PlumbingGraph) -> list[frozenset]:
    """The component vertex sets of ``g`` by a union-find over its edges,
    sorted by least member."""
    parent = {v: v for v in g.vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in g.edges:
        parent[find(a)] = find(b)
    comps: dict = {}
    for v in g.vertices:
        comps.setdefault(find(v), set()).add(v)
    return sorted(map(frozenset, comps.values()), key=min)


def reference_canonical_code(g: PlumbingGraph) -> tuple:
    """``canonical_code`` component by component: each component built as
    its own graph, its centroids found by deleting each vertex in turn, and
    the least code rooted at one of them kept, codes built by recursion and
    ordered by the built-in tuple order; the codes sorted.  The recursion
    keeps this to shallow trees."""

    def code(c: PlumbingGraph, v, p) -> tuple:
        kids = sorted(code(c, u, v) for u in c.neighbors(v) if u != p)
        return (c.weight(v), tuple(kids))

    out = []
    for comp in reference_components(g):
        c = subgraph(g, comp)
        heaviest = {
            v: max(map(len, reference_components(delete(c, [v]))), default=0)
            for v in c.vertices
        }
        least = min(heaviest.values())
        out.append(min(code(c, v, None) for v in c.vertices if heaviest[v] == least))
    return tuple(sorted(out))


def pairing(g: PlumbingGraph, a, b) -> Fraction:
    """Exact value of a^T I b."""
    _check_support(g, a)
    _check_support(g, b)
    total = 0  # exact either way; int while both cycles are
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
    """Dense fraction-free (Bareiss) elimination with row swaps, over
    integers: each row is first scaled by the lcm of its denominators, and
    the product of those factors is divided back out exactly at the end.
    Every division of the elimination is exact, as each entry it leaves is
    a minor of the scaled matrix."""
    m, scale = [], 1
    for row in rows:  # of ints and Fractions, which both have these fields
        f = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (f // x.denominator) for x in row])
        scale *= f
    n, sign, prev = len(m), 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top, p = m[k], m[k][k]
        for r in range(k + 1, n):
            row, a = m[r], m[r][k]
            for c in range(k + 1, n):
                row[c] = (p * row[c] - a * top[c]) // prev
        prev = p
    return Fraction(sign * prev, scale)


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
    """det(-I) via dense fraction-free elimination."""
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


def reference_census_roots(max_vertices: int, weight_min: int):
    """The roots of each census tree with every vertex count listed whole,
    centroid roots then bicentral pairs, and sorted by ``_tree_code`` in one
    sort, where ``census._census_roots`` sorts one root weight at a time."""
    _validate_limits(max_vertices, weight_min)
    rooted = _RootedTrees(weight_min)
    for n in range(1, max_vertices + 1):
        batch = [(code,) for code, _, _ in rooted.trees(n - 1, (n - 1) // 2)]
        if n % 2 == 0:
            half_entries = rooted.level(n // 2)
            for i, (c1, d1, p1) in enumerate(half_entries):
                for c2, d2, p2 in half_entries[i:]:
                    if d1 * d2 - p1 * p2 > 0:
                        batch.append((c1, c2))
        yield from sorted(batch, key=_tree_code)


def cf_eval(terms) -> Fraction:
    """Evaluate [e_1, ..., e_s] = e_1 - 1/(e_2 - ...) exactly, folding from
    the right."""
    terms = list(terms)
    if not terms:
        raise GraphStructureError("empty continued fraction")
    val = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        val = t - 1 / val
    return val


def reference_star_to_seifert(g: PlumbingGraph) -> SeifertData:
    """``star_to_seifert`` with each leg walked as a path from the center
    and its terms evaluated by ``cf_eval``, where the library reads a leg's
    (alpha, omega) as the (D, P) of the leg."""
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


def reference_laufer_run(g: PlumbingGraph, rng=None, frozen=(), stop=False):
    """Laufer's computation sequence, rescanning every vertex in id order
    for the positive pairings before each step; ``frozen`` vertices never
    step.  Returns (Z_min, steps as (cycle before, vertex, pairing value),
    first jump as (step, vertex, value) or None).  With ``stop`` it returns
    once it has recorded its first jump, the cycle not yet stepped."""
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
            if stop:
                return mult, steps, jump
        mult[v] += 1
        pair[v] += weights[v]
        for n in g.neighbors(v):
            pair[n] += 1


def reference_prefix(g: PlumbingGraph, frozen=()) -> frozenset | None:
    """S(frozen) of the prefix lemma of ``laufer``: the vertices of the
    steps of ``reference_laufer_run`` up to its first jump, included, or
    None when no step jumps."""
    _, steps, jump = reference_laufer_run(g, frozen=frozen, stop=True)
    return None if jump is None else frozenset(v for _, v, _ in steps[: jump[0] + 1])


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
    solution of (K + E_v, E_v) = -2, so only invertible forms qualify.  K
    of the last graph asked is kept for the next call."""
    k = _last_canonical_cycle(g)
    return -(pairing(g, k, cyc) + pairing(g, cyc, cyc)) / 2


@lru_cache(maxsize=1)
def _last_canonical_cycle(g: PlumbingGraph) -> dict:
    return canonical_cycle(g)


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


def brieskorn_cover_rational(m: int, n: int) -> bool:
    """Rationality of the double-suspension Brieskorn singularity with
    exponents (2, m, n): true iff 1/2 + 1/m + 1/n > 1.  When (2, m, n) are
    pairwise coprime the verdict is cross-checked against the Laufer run
    on the actual Seifert graph."""
    if m < 2 or n < 2:
        raise GraphStructureError("exponents must be >= 2")
    verdict = Fraction(1, 2) + Fraction(1, m) + Fraction(1, n) > 1
    if gcd(m, n) == 1 and m % 2 and n % 2:
        direct = is_rational(seifert_to_graph(brieskorn_seifert(2, m, n))).rational
        if direct != verdict:
            raise InternalCheckError(
                f"Brieskorn inequality and Laufer disagree for (2,{m},{n})"
            )
    return verdict


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


def reference_negative_cf(r) -> ContinuedFraction:
    """``negative_cf`` as a ``Fraction`` loop: e_1 = floor(r), then the
    expansion of -1/(r - floor(r)), re-evaluated by ``cf_eval``."""
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


class ReferenceCut(NamedTuple):
    """The fields of ``surgery.CutResult``, every graph built at once."""

    side_v: PlumbingGraph
    side_w: PlumbingGraph
    edge: tuple
    det_w: Fraction
    det_w_minus: Fraction
    r: Fraction
    filled_v: PlumbingGraph
    filled_w: PlumbingGraph

    @property
    def decorated_v(self) -> PlumbingGraph:
        return _reference_attach(self.side_v, self.edge[0], 1 / self.r)

    @property
    def decorated_w(self) -> PlumbingGraph:
        return _reference_attach(self.side_w, self.edge[1], self.r)


def _reference_attach(g: PlumbingGraph, at, weight) -> PlumbingGraph:
    """``g`` with one fresh vertex of the given weight attached at ``at``."""
    (q,) = fresh_ids(g, "q", 1)
    return PlumbingGraph({**g.weights(), q: weight}, [*g.edges, (at, q)])


def _reference_branch(g: PlumbingGraph, w, v) -> set:
    """The vertices a walk from ``w`` reaches without entering ``v``."""
    seen, stack = {v, w}, [w]
    while stack:
        new = [u for u in g.neighbors(stack.pop()) if u not in seen]
        seen.update(new)
        stack += new
    return seen - {v}


def reference_cut(g: PlumbingGraph, v, w) -> ReferenceCut:
    """The cut of ``g`` at the edge (v, w) from graphs: both sides built as
    subgraphs, det_w and det_w_minus read from side_w and side_w - w, and
    each side filled by ``attach_string``."""
    in_w = _reference_branch(g, w, v)
    side_w = subgraph(g, in_w)
    side_v = subgraph(g, next(c for c in g.component_vertex_sets() if v in c) - in_w)
    det_w = determinant(side_w)
    det_w_minus = determinant(delete(side_w, vertices=[w]))
    if det_w <= 0 or det_w_minus <= 0:
        raise InternalCheckError("side determinants must be positive")
    r = -det_w_minus / det_w
    return ReferenceCut(
        side_v, side_w, (v, w), det_w, det_w_minus, r,
        attach_string(side_v, v, 1 / r), attach_string(side_w, w, r),
    )


def reference_min_bad(g: PlumbingGraph) -> tuple[int, frozenset]:
    """``min_bad`` by exhaustive size-ascending subset search, subsets of
    nodes first, where the library walks the prefix tree.  The first hit at
    the smallest size is returned."""
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


def reference_least_bad(g: PlumbingGraph, most: int) -> tuple:
    """``laufer._least_bad`` with frozenset levels, each set tried by its
    run filed in the graph's store by ``_stored``, and a level's prefixes
    read back from the store once it holds no bad set, where the library
    tries each set by a run it files only for sets of at most one vertex and
    grows the next level as it goes.  Returns (m, the least bad set) or None,
    and the sets tried, in order."""
    _check_laufer_input(g)
    node_set = set(nodes(g))
    level, tried = [frozenset()], []
    for k in range(most + 1):
        for bad in level:
            tried.append(bad)
            if _stored(g, bad)[0] is None:
                return (k, bad), tried
        if k == most:
            break
        sets = {bad | {v} for bad in level for v in _stored(g, bad)[1]}
        level = sorted(sets, key=lambda bad: (not bad <= node_set, sorted(bad)))
    return None, tried


def reference_m_le_1(g: PlumbingGraph) -> bool:
    """The m <= 1 test of a ``BaseM1`` leaf with one frozen run per vertex,
    nodes first, each made by ``is_bad_set``, where the library makes one
    only for the vertices of the plain run's prefix."""
    return any(is_bad_set(g, {v}) for v in sorted(g.vertices, key=lambda v: g.degree(v) < 3))


def reference_cut_vertex(g: PlumbingGraph, v):
    """``surgery._cut_vertex`` with the jump read from the run frozen at v,
    which ``stabilize`` makes to its end and files on the lowered graph,
    where the library takes the plain run's jump for v off its prefix, and
    each component of g - v, the jumped one and those that hold a node,
    from a walk that does not enter v, where the library reads node counts."""
    gnodes = set(nodes(g))
    branches = [u for u in g.neighbors(v) if _reference_branch(g, u, v) & gnodes]
    if len(branches) < 2:
        return None
    jump = is_rational(stabilize(g, [v])).jump
    jumped = _reference_branch(g, jump.vertex, v) if jump else set()
    return jump, jumped, tuple(w for w in branches if w not in jumped)


def reference_claims_match(stored, fresh) -> bool:
    """Whether ``check_certificate`` accepts the stored claim ``stored``
    for the recomputed ``fresh``: equal tuples and equal JSON forms, which
    tell a bool from a number where ``==`` does not (True == 1)."""
    return stored == fresh and _claim_to_json(stored) == _claim_to_json(fresh)
