import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plumbcalc.errors import GraphStructureError, SingularFormError
from plumbcalc.graph import PlumbingGraph, parse_graph
from plumbcalc.lattice import (
    DefinitenessKind,
    _k_plus_l_l,
    canonical_cycle,
    chi,
    definiteness,
    determinant,
    intersection_form,
    solve_intersection_form,
)

from oracles import (
    det_cofactor,
    det_edge_identity_check,
    det_gauss,
    matrix_of,
    oracle_det,
    oracle_is_negative_definite,
    oracle_is_negative_semidefinite,
    pairing,
    reference_chi,
    reference_components,
    with_weight,
)
from plumbcalc.census import census_graphs
from plumbcalc.laufer import is_rational
from plumbcalc.surgery import cut_and_fill

from test_graph import random_tree


# -- pairing ------------------------------------------------------------


def test_pairing_diagonal(s237):
    for v in s237.vertices:
        assert pairing(s237, {v: 1}, {v: 1}) == s237.weight(v)


def test_pairing_edge(s237):
    assert pairing(s237, {"c": 1}, {"p7": 1}) == 1
    assert pairing(s237, {"p2": 1}, {"p7": 1}) == 0


def test_pairing_sum_example():
    g = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    full = {"a": 1, "b": 1}
    assert pairing(g, full, full) == -2


def test_pairing_foreign_vertex(s237):
    with pytest.raises(GraphStructureError):
        pairing(s237, {"zz": 1}, {"c": 1})


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_pairing_symmetric_bilinear(n, rng):
    g = random_tree(rng, n)
    a = {v: rng.randint(-3, 3) for v in g.vertices}
    b = {v: rng.randint(-3, 3) for v in g.vertices}
    c = {v: rng.randint(-3, 3) for v in g.vertices}
    assert pairing(g, a, b) == pairing(g, b, a)
    ab = {v: a[v] + b[v] for v in g.vertices}
    assert pairing(g, ab, c) == pairing(g, a, c) + pairing(g, b, c)


# -- determinant --------------------------------------------------------


def test_det_examples(e8, s237):
    assert determinant(parse_graph("vertex a -2")) == 2
    assert determinant(e8) == 1
    assert determinant(s237) == 1  # 42 * (1 - 1/2 - 1/3 - 1/7)


def test_det_empty_and_disjoint():
    assert determinant(PlumbingGraph({})) == 1
    g = PlumbingGraph({"a": -2, "b": -3})
    assert determinant(g) == 6


def test_det_rational_weights():
    g = PlumbingGraph({"a": Fraction(-7, 2)})
    assert determinant(g) == Fraction(7, 2)


def test_det_matches_oracles():
    rng = random.Random(11)
    for _ in range(60):
        g = random_tree(rng, rng.randint(1, 8))
        assert determinant(g) == oracle_det(g)
    small = random_tree(rng, 5)
    assert determinant(small) == det_cofactor(matrix_of(small))


def test_det_gauss_matches_cofactor_expansion():
    # the dense elimination oracle against the cofactor expansion, on every
    # census-5 matrix, and on each again with its first weight made 0 (a
    # zero pivot, so a row swap) or a slope (a row scaled by 3)
    graphs = 0
    for g in census_graphs(5, -5):
        v = g.vertices[0]
        for h in (g, with_weight(g, v, 0), with_weight(g, v, Fraction(-7, 3))):
            rows = matrix_of(h)
            assert det_gauss(rows) == det_cofactor(rows), h
        graphs += 1
    assert graphs == 3533


# -- definiteness --------------------------------------------------------


def test_definiteness_valency_bound(census6):
    # e_v <= -valency(v) for all v forces negative definiteness
    count = 0
    for g in census6[:500]:
        if all(g.weight(v) <= -g.degree(v) for v in g.vertices):
            assert definiteness(g).is_negative_definite
            count += 1
    assert count > 0


def test_definiteness_semidefinite_chain():
    g = parse_graph("vertex a -2\nvertex b -1\nvertex c -2\nedge a b\nedge b c")
    verdict = definiteness(g)
    assert verdict.is_negative_semidefinite and verdict.corank == 1
    assert determinant(g) == 0


def test_definiteness_other():
    assert definiteness(parse_graph("vertex a 1")).kind is DefinitenessKind.OTHER
    # zero diagonal with an off-diagonal residual is indefinite
    g = parse_graph("vertex a 0\nvertex b -2\nedge a b")
    assert definiteness(g).kind is DefinitenessKind.OTHER


def test_definiteness_two_zero_children_is_other():
    # rooted at a, both children have D = 0, and so does a; the zero below
    # the root decides, not the root
    g = parse_graph("vertex a -2\nvertex b 0\nvertex c 0\nedge a b\nedge a c")
    assert determinant(g) == 0
    assert definiteness(g).kind is DefinitenessKind.OTHER
    assert not oracle_is_negative_semidefinite(g)


def test_definiteness_zero_isolated_vertex_is_semidefinite():
    g = parse_graph("vertex a 0")
    verdict = definiteness(g)
    assert verdict.is_negative_semidefinite and verdict.corank == 1


def test_definiteness_matches_minor_oracles():
    rng = random.Random(5)
    for _ in range(60):
        g = random_tree(rng, rng.randint(1, 7), wmin=-3)
        verdict = definiteness(g)
        assert verdict.is_negative_definite == oracle_is_negative_definite(g)
        if verdict.is_negative_semidefinite:
            assert oracle_is_negative_semidefinite(g)
            assert determinant(g) == 0
        if verdict.is_negative_definite:
            assert determinant(g) > 0


def _assert_definiteness_matches_oracles(g: PlumbingGraph) -> None:
    verdict = definiteness(g)
    assert verdict.is_negative_definite == oracle_is_negative_definite(g)
    semidefinite = not verdict.is_negative_definite and oracle_is_negative_semidefinite(g)
    assert verdict.is_negative_semidefinite == semidefinite
    if semidefinite:
        # corank = dimension of the kernel of the form
        rows = matrix_of(g)
        assert verdict.corank == len(rows) - _rank(rows)


def _rank(rows) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


@st.composite
def forests(draw):
    """(weights, edges) of 2 to 3 random trees of 1 to 4 vertices each, ids
    shuffled over the forest, so a tree's least vertex, its root, is often
    a leaf and a lone vertex is a tree."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    names = draw(st.permutations([f"v{i}" for i in range(sum(sizes))]))
    weights = {v: draw(st.integers(-4, 0)) for v in names}
    edges, start = [], 0
    for size in sizes:
        for j in range(1, size):
            edges.append((names[start + j], names[start + draw(st.integers(0, j - 1))]))
        start += size
    return weights, edges


@settings(max_examples=150, deadline=None)
@given(forests())
@example(({"a": -2, "b": -2, "c": -1, "d": -3, "e": 0}, [("c", "b"), ("b", "a")]))
def test_parent_map_and_fold_match_oracles_on_forests(forest):
    # the parent map, read parents first, splits the forest into the trees
    # of a union-find, each rooted at its least vertex and walked along its
    # edges; the (D, P) fold over it gives the dense determinant and the
    # minor oracles' definiteness
    g = PlumbingGraph(*forest)
    root = {}
    for v, p in g._parent.items():
        root[v] = v if p is None else root[p]
        assert p is None or g.has_edge(v, p)
    trees = {}
    for v, r in root.items():
        trees.setdefault(r, set()).add(v)
    assert [frozenset(t) for t in trees.values()] == reference_components(g)
    assert all(r == min(t) for r, t in trees.items())
    assert determinant(g) == det_gauss(matrix_of(g))
    _assert_definiteness_matches_oracles(g)


def test_definiteness_pass_matches_minor_oracles_on_census(census6):
    # census graphs are definite; raising one or two weights makes some of
    # them semidefinite or indefinite (two raised leaves can both reach 0)
    rng = random.Random(59)
    for g in rng.sample(census6, 400):
        _assert_definiteness_matches_oracles(g)
        for v in rng.sample(g.vertices, min(len(g), rng.randint(1, 2))):
            g = with_weight(g, v, g.weight(v) + rng.randint(1, 3))
        _assert_definiteness_matches_oracles(g)


def test_definiteness_pass_matches_minor_oracles_on_slope_graphs(census6):
    # the decorated sides of cut_and_fill carry one Fraction-weighted vertex
    rng = random.Random(61)
    fractional = 0
    for g in rng.sample([g for g in census6 if len(g) >= 2], 150):
        cut = cut_and_fill(g, rng.choice(g.edges))
        for side in (cut.decorated_v, cut.decorated_w):
            _assert_definiteness_matches_oracles(side)
            fractional += not side.has_integer_weights()
    assert fractional >= 150  # 176 of the 300 sides


def test_sylvester_random_orderings(census6):
    rng = random.Random(17)
    for g in rng.sample(census6, 40):
        order = list(range(len(g)))
        rng.shuffle(order)
        assert oracle_is_negative_definite(g, order)


# -- canonical cycle and chi ---------------------------------------------


def test_canonical_cycle_all_minus_two(e8):
    assert all(v == 0 for v in canonical_cycle(e8).values())


def test_canonical_cycle_single_minus_three():
    # (K+E,E) = -2 with e = -3 gives -3k = 1, so K = -E/3
    g = parse_graph("vertex a -3")
    assert canonical_cycle(g) == {"a": Fraction(-1, 3)}


def test_canonical_cycle_s237_pairings(s237):
    k = canonical_cycle(s237)
    pairs = {v: pairing(s237, k, {v: 1}) for v in s237.vertices}
    assert pairs["c"] == -1 and pairs["p7"] == 5
    # adjunction (K, E_v) = -2 - e_v everywhere
    for v in s237.vertices:
        assert pairs[v] == -2 - s237.weight(v)


def test_canonical_cycle_singular_raises():
    g = parse_graph("vertex a -2\nvertex b -1\nvertex c -2\nedge a b\nedge b c")
    with pytest.raises(SingularFormError):
        canonical_cycle(g)


def test_solve_against_oracle():
    rng = random.Random(23)
    done = 0
    while done < 20:
        g = random_tree(rng, rng.randint(1, 7))
        if not definiteness(g).is_negative_definite:
            continue
        done += 1
        rhs = {v: Fraction(rng.randint(-5, 5)) for v in g.vertices}
        x = solve_intersection_form(g, rhs)
        for v in g.vertices:
            got = g.weight(v) * x[v] + sum(x[n] for n in g.neighbors(v))
            assert got == rhs[v]


CHI_ROUTES = (chi, reference_chi)  # adjunction sum, canonical cycle


def test_chi_zero_and_basis(s237, e8):
    for route in CHI_ROUTES:
        for g in (s237, e8):
            assert route(g, {}) == 0
            for v in g.vertices:
                assert route(g, {v: 1}) == 1


def test_chi_zmin_s237(s237):
    z = {"c": 6, "p2": 3, "p3": 2, "p7": 1}
    assert chi(s237, z) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_chi_bilinearity(n, rng):
    g = random_tree(rng, n, wmin=-4)
    if not definiteness(g).is_negative_definite:
        return
    l1 = {v: rng.randint(-2, 4) for v in g.vertices}
    l2 = {v: rng.randint(-2, 4) for v in g.vertices}
    both = {v: l1[v] + l2[v] for v in g.vertices}
    for route in CHI_ROUTES:
        assert route(g, both) == route(g, l1) + route(g, l2) - pairing(g, l1, l2)


def _sparse_cycle(g, rng, values) -> dict:
    """A cycle on a random subset of the vertices; the others are 0."""
    support = rng.sample(g.vertices, rng.randint(0, len(g)))
    return {v: rng.choice(values) for v in support}


def test_chi_matches_canonical_cycle_route_on_census5():
    rng = random.Random(67)
    ints = range(-3, 6)
    fracs = [Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3, 7)]
    for g in census_graphs(5, -5):
        z = is_rational(g).z_min
        assert chi(g, z) == reference_chi(g, z)
        for values in (ints, fracs):
            cyc = _sparse_cycle(g, rng, values)
            assert chi(g, cyc) == reference_chi(g, cyc), (g, cyc)


def test_chi_matches_canonical_cycle_route_on_slope_graphs(census6):
    rng = random.Random(71)
    checked = 0
    for g in rng.sample([g for g in census6 if len(g) >= 2], 400):
        cut = cut_and_fill(g, rng.choice(g.edges))
        for side in (cut.decorated_v, cut.decorated_w):
            if not definiteness(side).is_negative_definite:
                continue  # no canonical cycle on a singular form
            for values in (range(-3, 6), [Fraction(1, 2), Fraction(-5, 3), 2]):
                cyc = _sparse_cycle(side, rng, values)
                assert chi(side, cyc) == reference_chi(side, cyc), (side, cyc)
            checked += not side.has_integer_weights()
    assert checked >= 100  # 120 Fraction-weighted definite sides


@lru_cache(maxsize=1)
def _census5() -> tuple:
    return tuple(census_graphs(5, -5))


@settings(max_examples=200, deadline=None)
@given(st.one_of(forests(), st.integers(0, 3532)), st.data())
def test_integer_chi_matches_canonical_cycle_route(source, data):
    # a negative-definite forest (one that is not has each weight lowered to
    # at most -(deg + 1)) or a census-5 graph, and an integer cycle on it,
    # zero, negative and missing entries too: ((K + l), l) is an even int,
    # -2 chi by the canonical cycle; chi wraps it as a Fraction, and a
    # verdict's chi(Z_min) is still a Fraction
    if isinstance(source, int):
        g = _census5()[source]
    else:
        g = PlumbingGraph(*source)
        if not definiteness(g).is_negative_definite:
            ws = {v: min(w, -1 - len(g._adj[v])) for v, w in g._weights.items()}
            g = PlumbingGraph(ws, g.edges)
    entries = st.one_of(st.none(), st.integers(-3, 4))
    values = data.draw(st.lists(entries, min_size=len(g), max_size=len(g)))
    cyc = {v: k for v, k in zip(g.vertices, values) if k is not None}
    total = _k_plus_l_l(g, cyc)
    assert type(total) is int and total % 2 == 0
    assert -total == 2 * reference_chi(g, cyc)
    value = chi(g, cyc)
    assert type(value) is Fraction and value == reference_chi(g, cyc)
    if g.is_connected():
        verdict = is_rational(PlumbingGraph(g.weights(), g.edges))
        assert type(verdict.chi_zmin) is Fraction
        assert verdict.chi_zmin == reference_chi(g, verdict.z_min)


def test_chi_rejects_foreign_vertex(s237):
    with pytest.raises(GraphStructureError):
        chi(s237, {"c": 1, "zz": 1})


# -- edge-deletion identity ----------------------------------------------


def test_det_edge_identity_examples(e8):
    g = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    assert det_edge_identity_check(g, ("a", "b"))  # 3 = 2*2 - 1
    for e in e8.edges:
        assert det_edge_identity_check(e8, e)


def test_det_edge_identity_random_trees():
    rng = random.Random(29)
    for _ in range(40):
        g = random_tree(rng, rng.randint(2, 8))
        for e in g.edges:
            assert det_edge_identity_check(g, e)


def test_intersection_form_export(s237):
    order, rows = intersection_form(s237)
    assert order == s237.vertices
    idx = {v: i for i, v in enumerate(order)}
    assert rows[idx["c"]][idx["c"]] == -1
    assert rows[idx["c"]][idx["p7"]] == 1
    assert rows[idx["p2"]][idx["p3"]] == 0
    # the matrix is Fraction throughout, though graphs store int weights
    assert all(type(x) is Fraction for row in rows for x in row)
