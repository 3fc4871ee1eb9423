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
class (children kept in sorted canonical order).

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

import time
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Iterator

from .errors import GraphStructureError
from .classify import ClassificationReport, classify
from .graph import PlumbingGraph, canonical_code, is_minimal, parse_graph
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
        if size not in self._levels:
            entries: list[_Entry] = []
            for children, s, p in self.child_multisets(size - 1, size - 1):
                codes = tuple(sorted(c[0] for c in children))
                for w in range(self.wmin, 0):
                    d = -w * p - s
                    if d > 0:
                        entries.append(((w, codes), d, p))
            entries.sort(key=lambda e: e[0])
            self._levels[size] = entries
        return self._levels[size]

    def child_multisets(
        self, total: int, max_part: int
    ) -> Iterator[tuple[tuple[_Entry, ...], int, int]]:
        """Multisets of rooted trees with sizes summing to ``total`` and
        bounded by ``max_part``; yields (entries, s, p) with
        p = prod D_i and s = sum_i P_i * prod_{j != i} D_j."""
        for part in _partitions(total, max_part):
            groups: list[tuple[int, int]] = []
            for sz in part:
                if groups and groups[-1][0] == sz:
                    groups[-1] = (sz, groups[-1][1] + 1)
                else:
                    groups.append((sz, 1))
            pools = [
                combinations_with_replacement(self.level(sz), cnt)
                for sz, cnt in groups
            ]
            for pick in product(*pools):
                children = tuple(c for group in pick for c in group)
                s, prod = 0, 1
                for _, d, p in children:
                    s, prod = combine(s, prod, d, p)
                yield children, s, prod


def _graph_from_codes(*roots: tuple) -> PlumbingGraph:
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
        stack.extend((kid, vid) for kid in reversed(kids))
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


def census_graphs(
    max_vertices: int = 6, weight_min: int = -5
) -> Iterator[PlumbingGraph]:
    """All connected negative-definite decorated trees up to isomorphism
    with at most ``max_vertices`` vertices and weights in [weight_min, -1],
    in deterministic order (vertex count, then canonical code)."""
    _validate_limits(max_vertices, weight_min)
    rooted = _RootedTrees(weight_min)
    for n in range(1, max_vertices + 1):
        batch: list[PlumbingGraph] = []
        for children, s, p in rooted.child_multisets(n - 1, (n - 1) // 2):
            codes = tuple(sorted(c[0] for c in children))
            for w in range(weight_min, 0):
                d = -w * p - s
                if d > 0:
                    batch.append(_graph_from_codes((w, codes)))
        if n % 2 == 0:
            half_entries = rooted.level(n // 2)
            for i, (c1, d1, p1) in enumerate(half_entries):
                for c2, d2, p2 in half_entries[i:]:
                    if d1 * d2 - p1 * p2 > 0:
                        batch.append(_graph_from_codes(c1, c2))
        batch.sort(key=canonical_code)
        yield from batch


@dataclass
class CensusRecord:
    graph_text: str
    vertex_count: int
    report: ClassificationReport
    seconds: float


def _record_for_text(text: str) -> CensusRecord:
    g = parse_graph(text)
    t0 = time.perf_counter()
    rep = classify(g)
    return CensusRecord(text, len(g), rep, time.perf_counter() - t0)


def census(
    max_vertices: int = 6, weight_min: int = -5, jobs: int = 1
) -> Iterator[CensusRecord]:
    """Classified census stream in deterministic order.

    ``jobs > 1`` classifies in a process pool; the output order is the
    enumeration order regardless of worker scheduling.
    """
    from .graph import serialize_graph

    texts = (serialize_graph(g) for g in census_graphs(max_vertices, weight_min))
    if jobs <= 1:
        for text in texts:
            yield _record_for_text(text)
        return
    import multiprocessing

    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(_record_for_text, texts, chunksize=64)


@dataclass
class DetOneRecord:
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
    out: list[DetOneRecord] = []

    def consider(g: PlumbingGraph) -> None:
        if not is_minimal(g):
            return
        out.append(DetOneRecord(g, is_rational(g).rational))

    for n in range(1, max_vertices + 1):
        for children, s, p in rooted.child_multisets(n - 1, (n - 1) // 2):
            # need -w*p - s = 1 with an admissible integer weight
            if (1 + s) % p:
                continue
            w = -(1 + s) // p
            if weight_min <= w <= -1:
                codes = tuple(sorted(c[0] for c in children))
                consider(_graph_from_codes((w, codes)))
        if n % 2 == 0:
            buckets: dict[tuple[int, int], list[tuple]] = {}
            for code, d, p in rooted.level(n // 2):
                buckets.setdefault((d, p), []).append(code)
            keys = sorted(buckets)
            for i, (d1, p1) in enumerate(keys):
                for d2, p2 in keys[i:]:
                    if d1 * d2 - p1 * p2 != 1:
                        continue
                    if (d1, p1) == (d2, p2):
                        pairs = combinations_with_replacement(
                            buckets[(d1, p1)], 2
                        )
                    else:
                        pairs = product(buckets[(d1, p1)], buckets[(d2, p2)])
                    for c1, c2 in pairs:
                        consider(_graph_from_codes(c1, c2))
    out.sort(key=lambda rec: (len(rec.graph), canonical_code(rec.graph)))
    return out
