"""Exhaustive enumeration of decorated trees up to isomorphism.

The enumeration uses the classical centroid decomposition: every tree on
n vertices has either a unique centroid vertex, whose removal leaves
components of at most floor((n-1)/2) vertices, or a central edge whose
removal splits it into two halves of exactly n/2 vertices.  Decorated
trees are therefore generated exactly once as

  * a root weight plus a multiset of rooted decorated subtrees with
    sizes bounded by floor((n-1)/2), or
  * an unordered pair of rooted decorated trees of size n/2,

with rooted trees themselves enumerated once per rooted-isomorphism
class (children kept in sorted canonical order).  Each vertex count is
sorted into ``canonical_code`` order from these codes, one root weight at
a time, as every code starts with its root's weight, then built.

Every rooted tree carries exact determinant bookkeeping:

    D(T) = det(-I restricted to T),   P(T) = product of D over children
                                           = det(-I of T minus the root),

and by the edge-deletion identity

    D(T) = -w * P(T) - sum_i P(child_i) * prod_{j != i} D(child_j).

A rooted tree is negative definite iff all its children are and D > 0
(Sylvester's criterion, eliminating the root last); a centroid join is
negative definite iff its pieces are and its determinant is positive.
Since induced rooted pieces of a negative definite graph are negative
definite, pruning indefinite rooted trees loses nothing, which keeps the
search small.

The same machinery answers the "unimodular census" question directly:
for a fixed multiset of children the root weight forcing determinant 1
is solved from the identity above instead of scanned, and the bicentral
case is bucketed by the (D, P) pairs, so only genuine det-1 graphs are
ever materialized.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from itertools import combinations_with_replacement, product
from typing import Iterator, NamedTuple

from .errors import GraphStructureError
from .classify import ClassificationReport, classify
from .graph import PlumbingGraph, is_minimal, parse_graph, serialize_graph
from .lattice import combine
from .laufer import is_rational

MAX_VERTICES_LIMIT = 8
MIN_WEIGHT_LIMIT = -9

# rooted-tree entry: (code, D, P) with code = (weight, sorted child codes)
_Entry = tuple[tuple, int, int]


def _partitions(total: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing partitions of ``total`` with parts <= max_part."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


class _RootedTrees:
    """Negative-definite rooted decorated trees, one per rooted class."""

    def __init__(self, weight_min: int):
        self.wmin = weight_min
        self._levels: dict[int, list[_Entry]] = {}

    def level(self, size: int) -> list[_Entry]:
        if size not in self._levels:  # codes are distinct, so they decide the order
            self._levels[size] = sorted(self.trees(size - 1, size - 1))
        return self._levels[size]

    def trees(self, total: int, max_part: int) -> Iterator[_Entry]:
        """Rooted trees on ``total + 1`` vertices whose child subtrees have
        at most ``max_part`` vertices each."""
        for children, s, p in self.child_multisets(total, max_part):
            codes = tuple(sorted(c[0] for c in children))
            for w in range(self.wmin, 0):
                if -w * p - s > 0:
                    yield (w, codes), -w * p - s, p

    def child_multisets(
        self, total: int, max_part: int
    ) -> Iterator[tuple[tuple[_Entry, ...], int, int]]:
        """Multisets of rooted trees with sizes summing to ``total`` and
        bounded by ``max_part``; yields (entries, s, p) with
        p = prod D_i and s = sum_i P_i * prod_{j != i} D_j."""
        for part in _partitions(total, max_part):
            pools = [
                combinations_with_replacement(self.level(sz), cnt)
                for sz, cnt in Counter(part).items()
            ]
            for pick in product(*pools):
                children = tuple(c for group in pick for c in group)
                s, prod = 0, 1
                for _, d, p in children:
                    s, prod = combine(s, prod, d, p)
                yield children, s, prod


def _graph_from_codes(roots: tuple) -> PlumbingGraph:
    """The tree of one rooted code, or of two whose roots are joined by an
    edge; vertices are ``v0, v1, ...`` in depth-first order."""
    weights: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    tops: list[str] = []
    stack: list[tuple[tuple, str | None]] = [(code, None) for code in reversed(roots)]
    while stack:
        (w, kids), parent = stack.pop()
        vid = f"v{len(weights)}"
        weights[vid] = w
        if parent is None:
            tops.append(vid)
        else:
            edges.append((parent, vid))
        for kid in reversed(kids):
            stack.append((kid, vid))
    edges.extend(zip(tops, tops[1:]))
    return PlumbingGraph(weights, edges)


def _validate_limits(max_vertices: int, weight_min: int) -> None:
    if not (1 <= max_vertices <= MAX_VERTICES_LIMIT):
        raise GraphStructureError(
            f"max_vertices must be in [1, {MAX_VERTICES_LIMIT}], got {max_vertices}"
        )
    if not (MIN_WEIGHT_LIMIT <= weight_min <= -1):
        raise GraphStructureError(
            f"weight_min must be in [{MIN_WEIGHT_LIMIT}, -1], got {weight_min}"
        )


def _tree_code(roots: tuple) -> tuple:
    """``canonical_code`` of ``_graph_from_codes(roots)``, as a value, read
    off the roots' codes (int and ``Fraction`` weights compare alike).  A
    centroid join is its own rooted code; a central edge gives the lesser
    rooted code at its two ends, each with the other half as one more child."""
    if len(roots) == 1:
        return roots
    (w1, k1), (w2, k2) = c1, c2 = roots
    return (min((w1, tuple(sorted(k1 + (c2,)))), (w2, tuple(sorted(k2 + (c1,))))),)


def _census_roots(max_vertices: int, weight_min: int) -> Iterator[tuple]:
    """The roots of each census tree, for ``_graph_from_codes``, in census
    order: vertex count, then ``_tree_code``.  Each vertex count is sorted
    one root weight w at a time: its centroid roots of weight w, and its
    bicentral pairs whose first end, the lesser in level order, has weight
    w.  Every key of that group starts with w (a pair's lesser code is at
    its first end, whose weight is the lesser), so the groups, in ascending
    w, are the order of one sort of the whole vertex count, and only one
    group is held at a time."""
    _validate_limits(max_vertices, weight_min)
    rooted = _RootedTrees(weight_min)
    for n in range(1, max_vertices + 1):
        kids = [
            (tuple(sorted(c[0] for c in children)), s, p)
            for children, s, p in rooted.child_multisets(n - 1, (n - 1) // 2)
        ]
        half = rooted.level(n // 2) if n % 2 == 0 else []
        for w in range(weight_min, 0):
            group = [((w, codes),) for codes, s, p in kids if -w * p - s > 0]
            for i, (c1, d1, p1) in enumerate(half):
                if c1[0] == w:
                    for c2, d2, p2 in half[i:]:
                        if d1 * d2 - p1 * p2 > 0:
                            group.append((c1, c2))
            group.sort(key=_tree_code)
            yield from group


def census_graphs(
    max_vertices: int = 6, weight_min: int = -5
) -> Iterator[PlumbingGraph]:
    """All connected negative-definite decorated trees up to isomorphism
    with at most ``max_vertices`` vertices and weights in [weight_min, -1],
    in deterministic order: vertex count, then ``canonical_code``, computed
    from the enumerator's codes.  Each graph is built once, after the sort."""
    yield from map(_graph_from_codes, _census_roots(max_vertices, weight_min))


class CensusRecord(NamedTuple):
    graph_text: str
    vertex_count: int
    report: ClassificationReport
    seconds: float


def _record(g: PlumbingGraph) -> CensusRecord:
    t0 = time.perf_counter()
    rep = classify(g)
    return CensusRecord(rep.graph_text, len(g), rep, time.perf_counter() - t0)


def _record_for_text(text: str) -> CensusRecord:
    return _record(parse_graph(text))


def census(
    max_vertices: int = 6, weight_min: int = -5, jobs: int = 1
) -> Iterator[CensusRecord]:
    """Classified census stream in deterministic order.

    ``jobs <= 1`` classifies each graph as it is enumerated.  ``jobs > 1``
    sends the graphs' text to a process pool of ``jobs`` workers, at most
    one per CPU; the output order is the enumeration order regardless of
    worker scheduling.
    """
    graphs = census_graphs(max_vertices, weight_min)
    if jobs <= 1:
        yield from map(_record, graphs)
        return
    import multiprocessing

    with multiprocessing.Pool(min(jobs, os.cpu_count() or 1)) as pool:
        texts = map(serialize_graph, graphs)
        yield from pool.imap(_record_for_text, texts, chunksize=64)


class DetOneRecord(NamedTuple):
    graph: PlumbingGraph
    rational: bool


def minimal_det_one(
    max_vertices: int = 8, weight_min: int = -7
) -> list[DetOneRecord]:
    """Every minimal negative-definite tree with determinant 1 (up to
    isomorphism) within the given bounds, tagged with its rationality.

    Instead of scanning all decorated trees, the root weight of each
    centroid join is solved from the unimodularity constraint, and the
    bicentral case only walks (D, P)-bucket pairs satisfying
    D1*D2 - P1*P2 = 1, so the work scales with the number of actual
    det-1 graphs plus the rooted-tree pool."""
    _validate_limits(max_vertices, weight_min)
    rooted = _RootedTrees(weight_min)
    found: list[tuple[int, tuple]] = []  # (vertex count, roots) per det-1 tree
    for n in range(1, max_vertices + 1):
        for children, s, p in rooted.child_multisets(n - 1, (n - 1) // 2):
            w, r = divmod(-1 - s, p)  # -w*p - s = 1, if w is an integer
            if not r and weight_min <= w <= -1:
                codes = tuple(sorted(c[0] for c in children))
                found.append((n, ((w, codes),)))
        if n % 2 == 0:
            buckets: dict[tuple[int, int], list[tuple]] = {}
            for code, d, p in rooted.level(n // 2):
                buckets.setdefault((d, p), []).append(code)
            keys = sorted(buckets)
            # no det-1 pair within a bucket: D^2 - P^2 = 1 needs P = 0, but P >= 1
            for i, (d1, p1) in enumerate(keys):
                for d2, p2 in keys[i + 1 :]:
                    if d1 * d2 - p1 * p2 == 1:
                        pairs = product(buckets[(d1, p1)], buckets[(d2, p2)])
                        found.extend((n, pair) for pair in pairs)
    found.sort(key=lambda t: (t[0], _tree_code(t[1])))
    graphs = (_graph_from_codes(roots) for _, roots in found)
    return [DetOneRecord(g, is_rational(g).rational) for g in graphs if is_minimal(g)]
