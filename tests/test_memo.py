"""Facts stored on the immutable graph: each equals the fact computed from
scratch on an equal graph built apart, and no caller can change it.

The stored facts are the (determinant, definiteness) of the (D, P) pass,
the component vertex sets and the least-id Laufer runs, one per frozen set,
the empty set holding the graph's own verdict (see ``PlumbingGraph``).  The
second route is ``parse_graph(serialize_graph(g))``, a fresh graph with
nothing stored.
"""

import json
from pathlib import Path

import pytest

from plumbcalc import cli, lattice, laufer
from plumbcalc.census import census_graphs
from plumbcalc.classify import classify
from plumbcalc.errors import GraphStructureError
from plumbcalc.graph import PlumbingGraph, _components, nodes, parse_graph, serialize_graph
from plumbcalc.lattice import definiteness, determinant
from plumbcalc.laufer import is_bad_set, is_rational, stabilize
from plumbcalc.seifert import brieskorn_seifert, seifert_to_graph
from plumbcalc.surgery import (
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    lo_certificate,
)

from conftest import certify_inputs, two_star_chain
from oracles import reference_bad_verdict, reference_verdict, verdict_fields


def _facts(g: PlumbingGraph) -> list:
    out = [determinant(g), definiteness(g), g.component_vertex_sets()]
    try:
        v = is_rational(g)
    except GraphStructureError as exc:
        out.append(str(exc))
    else:
        out.append((v.rational, v.jump, v.z_min, v.chi_zmin))
    return out


def _assert_facts_match_fresh_copy(g: PlumbingGraph) -> None:
    # the components and the rooted order are stored at construction: the
    # search run afresh.  The order is every component in one run from its
    # least vertex, each other vertex after its parent, along an edge
    assert _components(g) == (g._comps, g._order)
    comps, seen = iter(g._comps), set()
    for v, p in g._order:
        if p is None:
            comp = next(comps)
            assert v == min(comp)
        else:
            assert p in seen and g.has_edge(v, p)
        assert v in comp and v not in seen
        seen.add(v)
    assert len(seen) == len(g) and next(comps, None) is None
    first = _facts(g)
    assert _facts(g) == first
    assert _facts(parse_graph(serialize_graph(g))) == first


def _node_graphs(node):
    stack = [node]
    while stack:
        n = stack.pop()
        yield n.graph
        stack.extend(n.children)


def test_stored_facts_match_fresh_copy_on_census5():
    for g in census_graphs(5, -5):
        _assert_facts_match_fresh_copy(g)


def test_stored_facts_match_fresh_copy_on_certify_inputs():
    # the inputs, then every graph of their certificates: derived graphs,
    # det-0 sides and minimized children, each reached after the builder
    # has stored its facts
    for g in certify_inputs(0):
        _assert_facts_match_fresh_copy(g)
        for h in _node_graphs(lo_certificate(g)):
            _assert_facts_match_fresh_copy(h)


def test_returned_values_do_not_alias_the_store(s237):
    g = parse_graph(serialize_graph(s237))
    zmin = is_rational(g).z_min
    zmin["c"] += 5
    zmin.clear()
    comps = g.component_vertex_sets()
    comps.append(frozenset({"x"}))
    zmin = {"c": 6, "p2": 3, "p3": 2, "p7": 1}
    assert is_rational(g).z_min == is_rational(s237).z_min == zmin
    assert g.component_vertex_sets() == [frozenset(g.vertices)]


def _count_dp_passes(monkeypatch) -> dict:
    count = {"passes": 0}
    walk = lattice._dp_pass

    def counted(g):
        count["passes"] += 1
        return walk(g)

    monkeypatch.setattr(lattice, "_dp_pass", counted)
    return count


def test_certificate_pass_counts(monkeypatch):
    # the builder used to run 29 (D, P) passes on this graph, the checker 20
    count = _count_dp_passes(monkeypatch)
    cert = lo_certificate(two_star_chain())
    assert count["passes"] <= 7
    count["passes"] = 0
    assert check_certificate(cert).ok
    assert count["passes"] <= 6
    parsed = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
    count["passes"] = 0
    assert check_certificate(parsed).ok
    assert count["passes"] <= 7


def _count_runs(monkeypatch) -> list:
    """(vertex count, frozen set, asked to stop at the first jump, steps
    taken) of every Laufer run."""
    runs = []
    run = laufer._run

    def counted(g, record, frozen=(), stop=False):
        out = run(g, record, frozen, stop)
        runs.append((len(g), frozenset(frozen), stop, sum(out[0].values()) - len(g)))
        return out

    monkeypatch.setattr(laufer, "_run", counted)
    return runs


def test_one_pass_and_one_run_per_graph(monkeypatch, s237):
    count = _count_dp_passes(monkeypatch)
    runs = _count_runs(monkeypatch)
    g = parse_graph(serialize_graph(s237))
    for _ in range(3):
        determinant(g), definiteness(g), is_rational(g)
    assert count["passes"] == 1 and len(runs) == 1


def test_verdict_stops_at_the_first_jump(monkeypatch):
    # the run of 374,228 steps jumps at its 20th step
    g = seifert_to_graph(brieskorn_seifert(199, 201, 203))
    runs = _count_runs(monkeypatch)
    assert not is_rational(g).rational and is_rational(g).jump.step == 19
    assert runs == [(61, frozenset(), True, 20)]


def test_classify_runs_to_the_first_jump_only(monkeypatch, s237):
    # tests/long_run.graph: 2 of its 1,181,702 steps
    path = Path(__file__).with_name("long_run.graph")
    g = parse_graph(path.read_text())
    runs = _count_runs(monkeypatch)
    assert classify(g).rational is False
    assert runs == [(76, frozenset(), True, 2)]
    runs.clear()
    assert classify(parse_graph(serialize_graph(s237))).rational is False
    assert runs == [(4, frozenset(), True, 1)]


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_zmin_command_runs_laufer_once(monkeypatch, capsys, flags):
    # the recording run files its verdict, which the rationality line reads:
    # one full run, and no run stopped at the first jump
    runs = _count_runs(monkeypatch)
    path = Path(__file__).resolve().parent.parent / "examples" / "s237.graph"
    assert cli.main(["zmin", str(path), *flags]) == 0
    assert "rational" in capsys.readouterr().out
    assert runs == [(4, frozenset(), False, 8)]


def test_recording_run_stores_the_verdict(monkeypatch, s237):
    g = parse_graph(serialize_graph(s237))
    ref = reference_verdict(s237)
    runs = _count_runs(monkeypatch)
    z, seq = laufer.z_min(g)
    assert z == seq.final == ref.z_min and len(runs) == 1
    z["c"] = 0
    seq.final.clear()
    assert verdict_fields(is_rational(g)) == ref and len(runs) == 1
    # a second recording run finds its run stored and leaves it
    laufer.z_min(g)
    assert verdict_fields(is_rational(g)) == ref and len(runs) == 2


def test_certificate_run_counts(monkeypatch):
    # the builder used to run 23 Laufer sequences on this graph, 3 of them
    # the same run frozen at m1 on the 10-vertex root: for m <= 1, for the
    # Case1 selection and for the Case1 table.  Then 14 full runs; now the
    # runs stop at their first jump, and only m1, whose lowered weight the
    # Case1 node records, runs once more to its end.
    runs = _count_runs(monkeypatch)
    lo_certificate(two_star_chain())
    assert len(runs) <= 15 and sum(r[3] for r in runs) == 29
    assert [r[2] for r in runs if r[:2] == (10, frozenset({"m1"}))] == [True, False]
    assert [r for r in runs if not r[2]] == [(10, frozenset({"m1"}), False, 16)]


def test_checker_run_counts(monkeypatch):
    # the checker of the same certificate, handed fresh graphs by a JSON
    # round trip: the Case1 table reads its jump from the run frozen at m1,
    # stopped there, and runs it once more to its end for the lowered
    # weight; every other run stops at its first jump
    data = json.loads(json.dumps(certificate_to_json(lo_certificate(two_star_chain()))))
    cert = certificate_from_json(data)
    runs = _count_runs(monkeypatch)
    assert check_certificate(cert).ok
    assert len(runs) == 6 and sum(r[3] for r in runs) == 20
    assert [r[2] for r in runs if r[:2] == (10, frozenset({"m1"}))] == [True, False]
    assert [r for r in runs if not r[2]] == [(10, frozenset({"m1"}), False, 16)]


def test_is_bad_set_builds_no_graph(monkeypatch):
    g = two_star_chain()
    built = []
    init = PlumbingGraph.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlumbingGraph, "__init__", counted)
    assert not any(is_bad_set(g, {v}) for v in g.vertices)
    assert is_bad_set(g, nodes(g))
    assert not built


def test_stabilized_graph_carries_its_verdict(monkeypatch, s237):
    g = parse_graph(serialize_graph(s237))
    ref = reference_bad_verdict(g, {"c"})
    runs = _count_runs(monkeypatch)
    down = stabilize(g, {"c"})
    assert down.weight("c") == -3 and verdict_fields(is_rational(down)) == ref
    assert is_bad_set(g, {"c"}) and runs == [(4, frozenset({"c"}), False, 0)]


def test_bad_set_results_do_not_alias_the_store(s237):
    g = parse_graph(serialize_graph(s237))
    bad = frozenset({"c"})
    ref = reference_bad_verdict(g, bad)
    entry = (ref.jump, (ref.z_min, ref.chi_zmin))  # (first jump, (Y, chi(Y)))
    verdict = laufer._verdict(g, bad)
    assert verdict_fields(verdict) == ref and laufer._stored(g, bad) == entry
    verdict.z_min["c"] += 5
    verdict.z_min.clear()
    down = stabilize(g, bad)
    is_rational(down).z_min["p2"] = 7
    laufer.zmin_multiplicities(down)["c"] = 9
    assert verdict_fields(laufer._verdict(g, bad)) == ref and laufer._stored(g, bad) == entry
    assert stabilize(g, bad) == down and down.weights() == {**g.weights(), "c": -3}
    assert is_rational(stabilize(g, bad)) == is_rational(down)
    assert verdict_fields(is_rational(down)) == ref


@pytest.mark.parametrize("text", ["vertex a 1", "vertex a -2\nvertex b -2"])
def test_failed_checks_store_no_verdict(text):
    g = parse_graph(text)
    for _ in range(2):
        with pytest.raises(GraphStructureError):
            is_rational(g)
    assert g._stabilized is None
    for query in (laufer.z_min, laufer.zmin_multiplicities, lambda g: is_bad_set(g, [])):
        with pytest.raises(GraphStructureError):
            query(g)
    assert g._stabilized is None
