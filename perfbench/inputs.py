"""Seeded input generators and the benchmark's own integer oracles.

Nothing here imports plumbcalc: the program under test receives only the
trees built below, and the verdicts it returns are checked against the
integer (D, P) recurrence and Laufer run written out again in this file.

A tree is a ``Tree``: integer weights indexed by vertex number plus an
edge list.  Vertex ``i`` is called ``v<i>`` in the graph file format.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Every pass is built from blocks of items that hold the same mix of input
# classes (size tenths, core counts), so any prefix of whole blocks has the
# same mix whatever the seed: a timed run that stops early measures the
# same traffic as one that finishes, and seeds differ in detail only.
TENTHS = 10


@dataclass(frozen=True)
class Tree:
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.weights)

    def names(self) -> list[str]:
        return [f"v{i}" for i in range(len(self.weights))]

    def text(self) -> str:
        """The graph file format read by ``plumbcalc``."""
        lines = [f"vertex v{i} {w}" for i, w in enumerate(self.weights)]
        lines.extend(f"edge v{a} v{b}" for a, b in self.edges)
        return "\n".join(lines) + "\n"

    def weight_map(self) -> dict[str, int]:
        return {f"v{i}": w for i, w in enumerate(self.weights)}

    def edge_names(self) -> list[tuple[str, str]]:
        return [(f"v{a}", f"v{b}") for a, b in self.edges]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.weights]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


# ---------------------------------------------------------------------------
# Integer oracles
# ---------------------------------------------------------------------------


def _rooted_order(adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """(pre-order from vertex 0, parent array); the tree must be connected."""
    parent = [-1] * len(adj)
    order = [0]
    seen = [False] * len(adj)
    seen[0] = True
    for v in order:
        for n in adj[v]:
            if not seen[n]:
                seen[n] = True
                parent[n] = v
                order.append(n)
    if len(order) != len(adj):
        raise ValueError("tree is not connected")
    return order, parent


def dp_check(tree: Tree) -> tuple[bool, int]:
    """(negative definite, det(-I)) from one integer (D, P) pass.

    Rooted at vertex 0, D(v) = det(-I) of the subtree under v and P(v) the
    product of the children's D.  With children's (D_c, P_c),
    D(v) = -w_v * prod D_c - sum_c P_c * prod_{c' != c} D_c'.
    The form is negative definite iff every D(v) > 0 (Sylvester, leaves
    eliminated first); the determinant is D(root).
    """
    order, parent = _rooted_order(tree.adjacency())
    p_acc = [1] * len(tree)
    s_acc = [0] * len(tree)
    nd = True
    d_v = 1
    for v in reversed(order):
        d_v = -tree.weights[v] * p_acc[v] - s_acc[v]
        if d_v <= 0:
            nd = False
        u = parent[v]
        if u >= 0:
            s_acc[u] = s_acc[u] * d_v + p_acc[v] * p_acc[u]
            p_acc[u] *= d_v
    return nd, d_v


def laufer_oracle(tree: Tree, max_steps: int | None = None) -> tuple[bool, list[int]] | None:
    """(rational, Z_min) by Laufer's sequence from l = sum E_v, or None
    when the sequence is longer than ``max_steps``.

    Any vertex with positive pairing may be added; the end cycle and the
    presence of a step with pairing >= 2 do not depend on that choice.
    Requires a connected negative-definite tree.
    """
    adj = tree.adjacency()
    w = tree.weights
    mult = [1] * len(w)
    pair = [w[v] + len(adj[v]) for v in range(len(w))]
    todo = [v for v in range(len(w)) if pair[v] > 0]
    rational = True
    steps = 0
    while todo:
        v = todo.pop()
        while pair[v] > 0:
            if pair[v] >= 2:
                rational = False
            steps += 1
            if max_steps is not None and steps > max_steps:
                return None
            mult[v] += 1
            pair[v] += w[v]
            for n in adj[v]:
                pair[n] += 1
                if pair[n] == 1:
                    todo.append(n)
    return rational, mult


def is_minimal(tree: Tree) -> bool:
    """No (-1)-vertex of valency <= 2 (a single vertex is minimal)."""
    if len(tree) == 1:
        return True
    adj = tree.adjacency()
    return not any(w == -1 and len(adj[v]) <= 2 for v, w in enumerate(tree.weights))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _stratified(rng: random.Random, count: int, kinds: list) -> list:
    """``count`` items whose every block of ``len(kinds)`` is a shuffle of
    ``kinds``."""
    out: list = []
    while len(out) < count:
        block = list(kinds)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def large_tree(rng: random.Random, n: int) -> Tree:
    """Random recursive tree on ``n`` vertices, weights in [-5, -1], with
    uniformly random vertices lowered by one, one at a time, until the
    (D, P) check passes.

    Lowering a weight never makes a definite form indefinite, so the
    stopping point is the shortest definite prefix of one random sequence
    of picks; it is found by doubling and bisection instead of a check
    after every pick.
    """
    weights = [rng.randint(-5, -1) for _ in range(n)]
    edges = tuple((rng.randrange(i), i) for i in range(1, n))
    picks: list[int] = []

    def lowered(k: int) -> Tree:
        while len(picks) < k:
            picks.append(rng.randrange(n))
        ws = list(weights)
        for u in picks[:k]:
            ws[u] -= 1
        return Tree(tuple(ws), edges)

    lo, hi = -1, 0  # lowered(lo) is indefinite (or lo < 0), lowered(hi) unknown
    while not dp_check(lowered(hi))[0]:
        lo, hi = hi, max(1, 2 * hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if dp_check(lowered(mid))[0]:
            hi = mid
        else:
            lo = mid
    return lowered(hi)


# plumbcalc's Laufer run rescans every vertex per step, so a tree costs
# about steps x vertices vertex visits there, at 38 ns each on the reference
# host.  A tree above this ceiling, an item of more than about 0.4 s there,
# is drawn again.  Of 4,000 unfiltered trees (seeds 0-39, 100 each) 1.0 %
# are: none of 64-84 vertices, 3.5 % of 776-1023.  Heavy Laufer runs stay
# in (a third of the trees take more steps than they have vertices); the
# tail beyond the ceiling runs to minutes, or to the step cap, and is the
# worst-case bound of ROADMAP item 4, not this workload's traffic.
LAUFER_COST_CEILING = 10_000_000


def classify_large_inputs(seed: int, count: int = 200) -> list[Tree]:
    """Vertex counts log-uniform in [64, 1024], one per tenth of the log
    range in every block of ten; trees above LAUFER_COST_CEILING are drawn
    again.

    Each tenth is cut into ``count // TENTHS`` equal cells, and its trees
    go through the cells in shuffled rounds, one tree a cell.  The largest
    trees make up most of the slowest tenth of items, so item_p90_ms
    follows their sizes; the cells keep those sizes alike from seed to
    seed.
    """
    rng = random.Random(f"classify-large/{seed}")
    tenths = _stratified(rng, count, list(range(TENTHS)))
    cells = max(1, count // TENTHS)
    cell = {j: iter(_stratified(rng, count, list(range(cells)))) for j in range(TENTHS)}
    out = []
    for j in tenths:
        u = (j + (next(cell[j]) + rng.random()) / cells) / TENTHS
        n = round(64 * 16**u)
        tree = large_tree(rng, n)
        while laufer_oracle(tree, max_steps=LAUFER_COST_CEILING // n) is None:
            tree = large_tree(rng, n)
        out.append(tree)
    return out


def _core(k: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Sigma(2,3,k) star: centre -1 (vertex 0), legs -2, -3, -k."""
    return [-1, -2, -3, -k], [(0, 1), (0, 2), (0, 3)]


def certify_tree(rng: random.Random, cores: int, extras: int) -> Tree:
    """``cores`` Sigma(2,3,k) stars (k in [7, 11]) and ``extras`` single
    vertices (weights in [-8, -2]) joined into a random tree at non-centre
    vertices, resampled until negative definite.

    Centres keep valency 3 and every other weight is <= -2, so the tree is
    minimal; it contains a Sigma(2,3,k) star, which is non-rational, so it
    is non-rational (rationality passes to connected subgraphs).
    """
    while True:
        weights: list[int] = []
        edges: list[tuple[int, int]] = []
        joints: list[list[int]] = []  # non-centre vertices of each piece
        for _ in range(cores):
            base = len(weights)
            ws, es = _core(rng.randint(7, 11))
            weights.extend(ws)
            edges.extend((base + a, base + b) for a, b in es)
            joints.append([base + 1, base + 2, base + 3])
        for _ in range(extras):
            joints.append([len(weights)])
            weights.append(rng.randint(-8, -2))
        order = list(range(len(joints)))
        rng.shuffle(order)
        for i in range(1, len(order)):
            a = rng.choice(joints[order[rng.randrange(i)]])
            b = rng.choice(joints[order[i]])
            edges.append((a, b))
        tree = Tree(tuple(weights), tuple(edges))
        if dp_check(tree)[0]:
            return tree


# 60/25/15 %: with three-core trees the slowest 15 %, item_p90_ms falls
# inside that class instead of on the edge between two classes.
CORE_MIX = [1] * 12 + [2] * 5 + [3] * 3
# Extra vertices per core count.  The bad-set search is exhaustive, so a
# three-core tree with ten extras costs 1-6 s, against 0.2-0.4 s with up to
# three; the cap keeps one slow item from deciding a whole timed run.
EXTRAS_MAX = {1: 10, 2: 6, 3: 3}


def certify_inputs(seed: int, count: int = 200) -> list[Tree]:
    """Minimal non-rational trees; every block of twenty has 12 one-core,
    5 two-core and 3 three-core trees.  The extra-vertex counts of each
    core count run through 0..EXTRAS_MAX[c] in shuffled rounds."""
    rng = random.Random(f"certify/{seed}")
    mix = _stratified(rng, count, CORE_MIX)
    extras = {
        c: iter(_stratified(rng, count, list(range(top + 1))))
        for c, top in EXTRAS_MAX.items()
    }
    return [certify_tree(rng, c, next(extras[c])) for c in mix]


def cli_cold_inputs(seed: int, count: int = 34) -> list[Tree]:
    """Small one-core trees for the command-line workload."""
    rng = random.Random(f"cli-cold/{seed}")
    return [certify_tree(rng, 1, rng.randint(0, 4)) for _ in range(count)]
