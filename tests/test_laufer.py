import random
from itertools import combinations
from pathlib import Path

import pytest

from plumbcalc import laufer
from plumbcalc.census import census_graphs
from plumbcalc.errors import GraphStructureError, InternalCheckError
from plumbcalc.graph import (
    PlumbingGraph,
    minimize,
    nodes,
    parse_graph,
    serialize_graph,
    subgraph,
)
from plumbcalc.laufer import (
    is_bad_set,
    is_rational,
    min_bad,
    stabilize,
    z_min,
    zmin_multiplicities,
)
from plumbcalc.seifert import brieskorn_seifert, seifert_to_graph

from conftest import certify_inputs, perfbench_module
from oracles import (
    monotonicity_report,
    oracle_zmin,
    pairing,
    reference_bad_verdict,
    reference_chi,
    reference_laufer_run,
    reference_least_bad,
    reference_prefix,
    reference_stabilize,
    reference_verdict,
    verdict_fields,
    with_weight,
)


# -- z_min ---------------------------------------------------------------


def test_zmin_all_minus_two_path():
    g = parse_graph(
        "vertex a -2\nvertex b -2\nvertex c -2\nedge a b\nedge b c"
    )
    z, seq = z_min(g)
    assert z == {"a": 1, "b": 1, "c": 1}
    assert seq.steps == ()


def test_zmin_valency_bound_graphs(census6):
    # e_v <= -valency for all v: the start cycle already is Z_min
    hit = 0
    for g in census6:
        if all(g.weight(v) <= -g.degree(v) for v in g.vertices):
            z, seq = z_min(g)
            assert z == {v: 1 for v in g.vertices}
            assert not seq.steps
            hit += 1
        if hit > 200:
            break
    assert hit > 0


def test_zmin_s237(s237):
    z, seq = z_min(s237)
    assert z == {"c": 6, "p2": 3, "p3": 2, "p7": 1}
    assert seq.final == z
    assert seq.steps[0].vertex == "c" and seq.steps[0].pairing_value == 2


def test_zmin_sequence_invariants(s237, e8):
    for g in (s237, e8):
        z, seq = z_min(g)
        mult = {v: 1 for v in g.vertices}
        for step in seq.steps:
            assert step.cycle_before == mult
            assert step.pairing_value == pairing(g, mult, {step.vertex: 1})
            assert step.pairing_value > 0
            mult[step.vertex] += 1
        assert mult == z
        for v in g.vertices:
            assert pairing(g, z, {v: 1}) <= 0


def test_zmin_matches_bruteforce(census6):
    # the brute-force box covers graphs whose fundamental cycle has
    # entries <= 10; larger multiplicities are out of the oracle's reach
    rng = random.Random(41)
    small4 = [g for g in census6 if len(g) <= 4]
    small5 = [
        g
        for g in census6
        if len(g) == 5 and max(zmin_multiplicities(g).values()) <= 7
    ]
    checked = 0
    for g in rng.sample(small4, 40):
        z = zmin_multiplicities(g)
        if max(z.values()) > 10:
            continue
        assert z == oracle_zmin(g, box=10)
        checked += 1
    for g in rng.sample(small5, 8):
        assert zmin_multiplicities(g) == oracle_zmin(g, box=9)
        checked += 1
    assert checked >= 40


def test_run_matches_rescanning_reference(
    census6, e8, s237, two_star_m2, case2_shallow, case2_deep
):
    # the worklist run must take the steps of a run that rescans every
    # vertex per step; a run in a random order ends at the same cycle, and
    # jumps somewhere iff the least-id run does
    graphs = [*census6, e8, s237, two_star_m2, case2_shallow, case2_deep]
    for i, g in enumerate(graphs):
        z_ref, steps_ref, jump_ref = reference_laufer_run(g)
        z, seq = z_min(g)
        assert z == z_ref and seq.final == z_ref
        got = [(s.cycle_before, s.vertex, s.pairing_value) for s in seq.steps]
        assert got == steps_ref
        verdict = is_rational(g)
        jump = verdict.jump
        assert verdict.z_min == z_ref
        assert (jump and (jump.step, jump.vertex, jump.value)) == jump_ref
        z_any, _, jump_any = reference_laufer_run(g, random.Random(i))
        assert z_any == z_ref and (jump_any is None) == verdict.rational


def test_integer_chi_matches_canonical_cycle(
    census6, e8, s237, two_star_m2, case2_shallow, case2_deep
):
    rng = random.Random(53)
    graphs = [*rng.sample(census6, 4000), e8, s237, two_star_m2, case2_shallow, case2_deep]
    for g in graphs:
        verdict = is_rational(g)
        assert verdict.chi_zmin == reference_chi(g, verdict.z_min)


def test_zmin_preconditions():
    with pytest.raises(GraphStructureError):
        z_min(PlumbingGraph({"a": -2, "b": -2}))  # disconnected
    with pytest.raises(GraphStructureError):
        z_min(parse_graph("vertex a 1"))  # not negative definite
    with pytest.raises(GraphStructureError):
        z_min(parse_graph("vertex a -7/2"))  # non-integer weights


def test_zmin_tie_break_independence_small(census6):
    rng = random.Random(43)
    for g in rng.sample(census6, 25):
        base, rational = zmin_multiplicities(g), is_rational(g).rational
        for seed in range(10):
            z, _, jump = reference_laufer_run(g, random.Random(seed))
            assert z == base and (jump is None) == rational


# -- rationality ----------------------------------------------------------


def test_rational_single_minus_one():
    verdict = is_rational(parse_graph("vertex a -1"))
    assert verdict.rational and verdict.jump is None


def test_rational_e8(e8):
    verdict = is_rational(e8)
    assert verdict.rational and verdict.chi_zmin == 1


def test_nonrational_s237(s237):
    verdict = is_rational(s237)
    assert not verdict.rational
    assert (verdict.jump.step, verdict.jump.vertex, verdict.jump.value) == (0, "c", 2)
    assert verdict.chi_zmin == 0


def test_rational_iff_chi_at_least_one(census6):
    rng = random.Random(47)
    for g in rng.sample(census6, 150):
        verdict = is_rational(g)
        assert verdict.rational == (verdict.chi_zmin >= 1)
        assert verdict.rational == (verdict.jump is None)


# -- verdicts stopped at the first jump ------------------------------------


@pytest.fixture
def artin_checks(monkeypatch):
    """Every Artin check of a run, as (graph, x = l - l_0, stopped, chi)."""
    checks = []
    artin = laufer._artin

    def recorded(g, x, jump, stopped):
        chi_l = artin(g, x, jump, stopped)
        checks.append((g, dict(x), stopped, chi_l))
        return chi_l

    monkeypatch.setattr(laufer, "_artin", recorded)
    return checks


def _assert_artin_reads_chi_of_the_cycle(g, checks):
    # chi(l_0) is |V| - |E|, and the chi that each check read from the
    # run's x alone is the oracle's chi, through the canonical cycle, of
    # the whole cycle l_0 + x (once per distinct cycle); returns the kinds
    # of run checked, stopped and full, and empties ``checks``
    seen = {frozenset(): reference_chi(g, dict.fromkeys(g.vertices, 1))}
    assert seen[frozenset()] == len(g) - len(g.edges), g
    for h, x, _, chi_l in checks:
        key = frozenset(x.items())
        if key not in seen:
            seen[key] = reference_chi(g, {v: x.get(v, 0) + 1 for v in g.vertices})
        assert h == g and chi_l == seen[key], (g, x)
    kinds = {stopped for _, _, stopped, _ in checks}
    checks.clear()
    return kinds


def _assert_stopped_verdicts_are_the_full_runs(g, frozen_sets, checks):
    # on a copy with nothing stored, each verdict comes from a run stopped at
    # its first jump and stored as that jump and the run's prefix, the
    # vertices the rescanning run steps up to the jump; reading Z_min and
    # chi runs it once more, to its end, and keeps the prefix; every run,
    # stopped and full, passes the Artin check of the cycle it reached
    h = PlumbingGraph(g.weights(), g.edges)
    for bad in frozen_sets:
        ref = reference_verdict(g, bad)
        rational = is_bad_set(h, bad) if bad else is_rational(h).rational
        verdict = laufer._verdict(h, bad)
        assert rational == verdict.rational == ref.rational, (g, bad)
        assert verdict.jump == ref.jump, (g, bad)
        prefix = reference_prefix(g, bad) if ref.jump else None
        end = (ref.z_min, ref.chi_zmin)
        assert h._stabilized[bad] == (ref.jump, prefix, None if ref.jump else end), (g, bad)
        assert verdict_fields(verdict) == ref, (g, bad)
        assert h._stabilized[bad] == (ref.jump, prefix, end), (g, bad)
    return _assert_artin_reads_chi_of_the_cycle(g, checks)


def test_stopped_verdicts_match_full_runs_on_census6(census6, artin_checks):
    kinds = set()
    for g in census6:
        sets = [frozenset()] + [frozenset({v}) for v in g.vertices]
        kinds |= _assert_stopped_verdicts_are_the_full_runs(g, sets, artin_checks)
    assert kinds == {False, True}


def test_stopped_verdicts_match_full_runs_on_certify_inputs(artin_checks):
    kinds = set()
    for g in certify_inputs(0):
        sets = [frozenset()] + [frozenset({v}) for v in g.vertices]
        kinds |= _assert_stopped_verdicts_are_the_full_runs(g, sets, artin_checks)
    assert kinds == {False, True}


def _long_runs():
    yield parse_graph(Path(__file__).with_name("long_run.graph").read_text())
    for pqr in ((2, 3, 7), (97, 101, 103), (199, 201, 203)):
        yield seifert_to_graph(brieskorn_seifert(*pqr))


@pytest.mark.parametrize("g", _long_runs(), ids=["long_run", "237", "97_101_103", "199_201_203"])
def test_stopped_verdicts_match_full_runs_on_long_runs(g, artin_checks):
    # each jumps, so its verdict's run stops and reading Z_min runs it again
    kinds = _assert_stopped_verdicts_are_the_full_runs(g, [frozenset()], artin_checks)
    assert kinds == {False, True}


@pytest.mark.parametrize("full", [False, True])
def test_a_run_with_a_corrupted_x_fails_the_artin_check(monkeypatch, full):
    # the 76-vertex tree jumps at its second step; a run whose x misses that
    # step reaches a cycle of chi 1, where the jump it reports needs chi <= 0
    g = next(_long_runs())
    x, _, jump, prefix = laufer._run(g, False, stop=True)
    x[jump.vertex] -= 1
    x = {v: k for v, k in x.items() if k}
    monkeypatch.setattr(laufer, "_run", lambda *args, **kwargs: (x, [], jump, prefix))
    with pytest.raises(InternalCheckError, match="criteria disagree"):
        laufer._stored(g, frozenset(), full=full)
    assert g._stabilized == {}


def test_recorded_and_stabilized_runs_keep_their_prefix(census6):
    # the graph's own entry is also filled by the recording run of z_min and,
    # on a lowered graph, by the frozen run that stabilize hands on: both
    # keep the prefix of the rescanning run on a fresh copy
    for g in census6:
        h = PlumbingGraph(g.weights(), g.edges)
        z_min(h)
        assert laufer._stored(h, frozenset())[1] == reference_prefix(g), g
        if is_rational(g).rational:
            continue
        for v in g.vertices:
            down = stabilize(h, [v])
            fresh = PlumbingGraph(down.weights(), down.edges)
            assert laufer._stored(down, frozenset())[1] == reference_prefix(fresh), (g, v)


# -- bad vertices -----------------------------------------------------------


def test_empty_bad_set_is_rationality(e8, s237):
    assert is_bad_set(e8, [])
    assert not is_bad_set(s237, [])


def test_center_is_bad_for_s237(s237):
    assert is_bad_set(s237, ["c"])


def test_stabilize_multiplicity_one(s237):
    down = stabilize(s237, ["c"])
    assert zmin_multiplicities(down)["c"] == 1
    assert down.weight("c") < s237.weight("c")
    # the other decorations are untouched
    for v in ("p2", "p3", "p7"):
        assert down.weight(v) == s237.weight(v)


def test_stabilize_stable_under_further_decrease(s237):
    down = stabilize(s237, ["c"])
    more = with_weight(down, "c", down.weight("c") - 5)
    assert zmin_multiplicities(more) == zmin_multiplicities(down)
    assert is_rational(more).rational == is_rational(down).rational


def test_stabilize_one_vertex_matches_decrement_loop(census6):
    for g in census6:
        for v in g.vertices:
            assert stabilize(g, [v]) == reference_stabilize(g, [v]), (g, v)


def test_frozen_run_in_any_order_ends_at_the_stabilized_zmin():
    # the lemma of the laufer module docstring under random tie-breaks: the
    # run frozen at v, stepping in any order, ends at Z_min of stabilize(g, [v])
    pairs = 0
    for g in census_graphs(5, -5):
        for v in g.vertices:
            z = is_rational(stabilize(g, [v])).z_min
            for seed in range(3):
                y, _, _ = reference_laufer_run(g, random.Random(seed), frozen={v})
                assert y == z, (g, v, seed)
            pairs += 1
    assert pairs == 17_044


def test_stabilize_pairs_against_decrement_loop():
    # Every 2-subset of every census-5 graph.  The loop may lower a vertex
    # further than needed; stabilize gives the largest weights with
    # multiplicity 1 on B, and the same verdict.
    sets = higher = 0
    for g in census_graphs(5, -5):
        for bad in combinations(g.vertices, 2):
            down, ref = stabilize(g, bad), reference_stabilize(g, bad)
            assert is_bad_set(g, bad) == is_rational(ref).rational
            z = zmin_multiplicities(down)
            for v in bad:
                assert z[v] == 1
                assert down.weight(v) >= ref.weight(v)
                if down.weight(v) < g.weight(v):
                    up = with_weight(down, v, down.weight(v) + 1)
                    assert zmin_multiplicities(up)[v] > 1
            assert all(down.weight(u) == g.weight(u) for u in g.vertices if u not in bad)
            sets += 1
            higher += down != ref
    assert sets == 32_986 and higher > 0


def _assert_bad_verdict_is_the_two_run_verdict(g, bad, seed):
    # the verdict stored by stabilize, read by is_bad_set, equals the old
    # route's: build the lowered graph afresh and run Laufer on it again;
    # a run on it in a random order ends at the same cycle and verdict
    ref = reference_bad_verdict(g, bad)
    down = stabilize(g, bad)
    assert verdict_fields(is_rational(down)) == ref, (g, bad)
    assert is_bad_set(g, bad) == ref.rational
    z, _, jump = reference_laufer_run(down, random.Random(seed))
    assert z == ref.z_min and (jump is None) == ref.rational


def test_bad_verdict_matches_two_run_route_on_single_vertices(census6):
    for i, g in enumerate(census6):
        for v in g.vertices:
            _assert_bad_verdict_is_the_two_run_verdict(g, [v], i)


def test_bad_verdict_matches_two_run_route_on_pairs_and_node_sets(census6):
    for i, g in enumerate(census_graphs(5, -5)):
        for bad in combinations(g.vertices, 2):
            _assert_bad_verdict_is_the_two_run_verdict(g, bad, i)
    for i, g in enumerate(census6):
        _assert_bad_verdict_is_the_two_run_verdict(g, nodes(g), i)


def test_min_bad_examples(e8, s237, two_star_m2):
    assert min_bad(e8) == (0, frozenset())
    assert min_bad(s237) == (1, frozenset({"c"}))
    m, witness = min_bad(two_star_m2)
    assert m == 2 and witness == frozenset({"xc", "yc"})


def test_min_bad_case2_fixtures(case2_shallow, case2_deep):
    assert min_bad(case2_shallow)[0] == 2
    assert min_bad(case2_deep)[0] == 2


def test_min_bad_returns_the_least_bad_set_in_its_order(monkeypatch, two_star_m2):
    # No input found here has a least bad set off the nodes, so the bad sets
    # are chosen: the least of them comes first by size, then subsets of the
    # nodes before the others, then lexicographically by sorted ids.  The
    # prefix of each set B tried is read as V - B, which holds every prefix
    # S(B), so the prefix tree reaches every set of each size, and no chosen
    # family needs real prefixes that reach it.  ``_tried`` is called once
    # per set, with its ids sorted
    g, node_set = two_star_m2, set(nodes(two_star_m2))  # nodes xc and yc

    def order(bad):
        return len(bad), not bad <= node_set, sorted(bad)

    def least(family):
        def tried(g, ids):  # (first jump, prefix): no jump iff B is bad
            assert list(ids) == sorted(ids), ids
            bad = frozenset(ids)
            return (None if bad in family else "jump"), frozenset(g.vertices) - bad

        monkeypatch.setattr(laufer, "_tried", tried)
        return min_bad(g)

    families = [
        ({"yl1"}, {"m2"}, {"xc", "yc"}),  # a non-node singleton, before a node pair
        ({"m1"}, {"yc"}),  # a node before a lesser non-node
        ({"yc"}, {"xc"}),
        ({"xc", "yl1"}, {"m2", "xc"}, {"xl1", "yc", "yl1"}),  # mixed pairs
        ({"m1", "m2"}, {"xc", "yc"}),
        ({"m1", "m2", "xc"}, {"m1", "m2", "yl3"}, {"xc", "yc", "yl3"}),
        (set(), {"xc"}),
    ]
    rng = random.Random(5)
    for _ in range(40):
        families.append([set(rng.sample(g.vertices, rng.randint(1, 4))) for _ in range(3)])
    for family in families:
        family = {frozenset(bad) for bad in family}
        want = min(family, key=order)
        assert least(family) == (len(want), want), family


def test_least_bad_tries_the_sets_of_the_filing_search(monkeypatch):
    # the walk of the prefix tree that files every run it makes tries the
    # same sets in the same order, on the benchmark's minimized
    # classify_large_inputs(3)[94] and on every non-rational census-5 graph,
    # with no bound on m and for the m <= 1 test; the library reads no run of
    # two or more vertices from the store and leaves none there
    t = perfbench_module("inputs").classify_large_inputs(3)[94]
    graphs = [minimize(PlumbingGraph(t.weight_map(), t.edge_names()))]
    graphs += [g for g in census_graphs(5, -5) if not is_rational(g).rational]
    tried, read = [], set()
    run_set, stored = laufer._tried, laufer._stored

    def reading(g, bad, *args, **kwargs):
        read.add(len(bad))
        return stored(g, bad, *args, **kwargs)

    monkeypatch.setattr(laufer, "_tried", lambda g, ids: tried.append(set(ids)) or run_set(g, ids))
    monkeypatch.setattr(laufer, "_stored", reading)
    for g in graphs:
        for most in (1, len(g)):
            tried.clear()
            got = laufer._least_bad(g, most) if most == 1 else min_bad(g)
            want = reference_least_bad(PlumbingGraph(g.weights(), g.edges), most)
            assert (got, tried) == want, (serialize_graph(g), most)
            assert max(map(len, g._stabilized)) <= 1, serialize_graph(g)
    assert len(graphs) > 1 and read == {0, 1}


# -- monotonicity -----------------------------------------------------------


def test_subgraph_of_rational_is_rational(e8):
    for v in e8.vertices:
        if e8.degree(v) == 1:
            sub = subgraph(e8, [w for w in e8.vertices if w != v])
            assert is_rational(sub).rational


def test_decreasing_decorations_keeps_rational(e8):
    lowered = with_weight(e8, "a1", -3)
    assert is_rational(lowered).rational


def test_induced_bad_set_on_subgraph(s237):
    # restriction of a bad set to a connected subgraph stays bad
    sub = subgraph(s237, ["c", "p2", "p7"])
    assert is_bad_set(sub, {"c"})


def test_monotonicity_report(e8, s237, two_star_m2):
    for g in (e8, s237, two_star_m2):
        rep = monotonicity_report(g, random.Random(0), samples=10)
        assert rep.ok, rep.failures
        assert rep.subgraph_checks == 10
