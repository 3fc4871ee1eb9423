"""Facts stored on the immutable graph: each equals the fact computed from
scratch on an equal graph built apart, and no caller can change it.

The stored facts are the (determinant, definiteness) of the (D, P) pass,
the component vertex sets, the nodes and their branches, the least-id
Laufer runs, one per frozen set, the empty set holding the graph's own
verdict, and the arrays every Laufer run starts from (see
``PlumbingGraph``).  The
second route is ``parse_graph(serialize_graph(g))``, a fresh graph with
nothing stored.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from plumbcalc import cli, graph, lattice, laufer, surgery
from plumbcalc.census import census_graphs
from plumbcalc.classify import classify
from plumbcalc.errors import GraphStructureError
from plumbcalc.graph import (
    PlumbingGraph,
    _components,
    minimize,
    nodes,
    parse_graph,
    serialize_graph,
)
from plumbcalc.lattice import definiteness, determinant
from plumbcalc.laufer import is_bad_set, is_rational, stabilize
from plumbcalc.seifert import brieskorn_seifert, seifert_to_graph
from plumbcalc.surgery import (
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    lo_certificate,
)

from conftest import certify_inputs, perfbench_module, two_star_chain
from oracles import reference_bad_verdict, reference_prefix, reference_verdict, verdict_fields


def _facts(g: PlumbingGraph) -> list:
    out = [determinant(g), definiteness(g), g.component_vertex_sets()]
    out += [nodes(g), surgery._node_counts(g)]
    try:
        v = is_rational(g)
    except GraphStructureError as exc:
        out.append(str(exc))
    else:
        out.append((v.rational, v.jump, v.z_min, v.chi_zmin))
    return out


def _assert_facts_match_fresh_copy(g: PlumbingGraph) -> None:
    # the tree count and the rooted order are stored at construction: the
    # search run afresh.  The order is every tree in one run from the least
    # vertex not yet reached, each other vertex after its parent in the same
    # run, along an edge; with |V| - #trees edges, no edge joins two runs
    assert _components(g) == (g._tree_count, g._order)
    rest, seen, roots = iter(g.vertices), set(), 0
    for v, p in g._order:
        if p is None:
            roots, tree = roots + 1, set()
            assert v == next(u for u in rest if u not in seen)
        else:
            assert p in tree and g.has_edge(v, p)
        assert v not in seen
        seen.add(v)
        tree.add(v)
    assert len(seen) == len(g) and roots == g._tree_count
    assert len(g.edges) == len(g) - roots
    first = _facts(g)
    assert _facts(g) == first
    assert _facts(parse_graph(serialize_graph(g))) == first
    assert g._arrays is None or g._arrays == laufer._run_arrays(g)


def _nodes(node):
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
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
        for n in _nodes(lo_certificate(g)):
            _assert_facts_match_fresh_copy(n.graph)


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
    # whole-graph (D, P) passes: the walks of g._order.  A cut folds each
    # decorated side by a walk of that side, which is not counted
    count = {"passes": 0}
    walk = lattice.walk_verdict

    def counted(g, order, *slope):
        count["passes"] += order is g._order
        return walk(g, order, *slope)

    monkeypatch.setattr(lattice, "walk_verdict", counted)
    return count


def _count_builds(monkeypatch) -> list:
    built = []
    init = PlumbingGraph.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlumbingGraph, "__init__", counted)
    return built


def test_valid_text_is_read_in_one_pass(monkeypatch, census6):
    # text of the serialized form is tokenized once and never read line by
    # line; any other valid text is read line by line, once; each parse
    # builds one graph
    lines_read = []
    parse_lines = graph._parse_lines

    def counted(text):
        lines_read.append(text)
        return parse_lines(text)

    rng = random.Random(17)
    tree = PlumbingGraph(
        {f"t{i}": rng.randint(-5, -1) for i in range(1000)},
        [(f"t{i}", f"t{rng.randrange(i)}") for i in range(1, 1000)],
    )
    texts = [serialize_graph(g) for g in [*census6, tree]]
    other = "# slopes\nvertex a -7/2\nvertex b -4/2  # int\nedge b a\n"
    monkeypatch.setattr(graph, "_parse_lines", counted)
    built = _count_builds(monkeypatch)
    for i, text in enumerate([*texts, other], start=1):
        parse_graph(text)
        assert len(built) == i
    assert lines_read == [other]


def test_node_branches_folded_once_per_graph(monkeypatch):
    # _certify and its Case1 table, and semidef_decompose and its cut,
    # each folded the same graph's node branches
    folded = []
    fold = surgery._node_counts

    def counted(g):
        if g._branches is None:  # the fold runs
            folded.append(g)  # kept alive, so no id is reused
        return fold(g)

    monkeypatch.setattr(surgery, "_node_counts", counted)
    for g in [two_star_chain(), *certify_inputs(0)[:20]]:
        folded.clear()
        certs = [lo_certificate(g)]
        assert len(folded) == len(set(map(id, folded)))
        certs.append(certificate_from_json(certificate_to_json(certs[0])))
        folded.clear()
        assert all(check_certificate(c).ok for c in certs)
        assert len(folded) == len(set(map(id, folded)))


def test_seifert_data_read_once_per_leaf(monkeypatch):
    # the builder tried the leaf table, with its Seifert data, on every det-0
    # graph, SemidefCut nodes too: 189 reads where the checker made 155
    read = []
    star_data = surgery._star_data

    def counted(g):
        read.append(g)
        return star_data(g)

    monkeypatch.setattr(surgery, "_star_data", counted)
    built = checked = leaves = 0
    for g in certify_inputs(0):
        cert = lo_certificate(g)
        built += len(read)
        read.clear()
        parsed = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
        assert check_certificate(parsed).ok
        checked += len(read)
        read.clear()
        leaves += sum(n.tag == surgery.TAG_SEMIDEF_LEAF for n in _nodes(cert))
    assert built == checked == leaves == 155


def test_certificate_pass_counts(monkeypatch):
    # the builder used to run 29 (D, P) passes on this graph, the checker 20;
    # then 7 and 6 (7 on parsed graphs), while each cut read its sides'
    # determinants from graphs built for them
    count = _count_dp_passes(monkeypatch)
    cert = lo_certificate(two_star_chain())
    assert count["passes"] <= 4
    count["passes"] = 0
    assert check_certificate(cert).ok
    assert count["passes"] <= 3
    parsed = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
    count["passes"] = 0
    assert check_certificate(parsed).ok
    assert count["passes"] <= 4


def test_cut_builds_only_its_filled_graphs(monkeypatch):
    # the sides, side_w - w and the decorated v-side were built to read a
    # determinant from each: 5 builds and 2 (D, P) passes per cut.
    # cut_and_fill built and passed both decorated graphs as well: 4 builds
    # and 4 passes, where it now folds each decorated side once
    g = two_star_chain()
    det_g = determinant(g)
    built = _count_builds(monkeypatch)
    count = _count_dp_passes(monkeypatch)
    cut = surgery._cut(g, "m1", "m2")
    assert len(built) == 2 and count["passes"] == 0
    assert cut.decorated_v_verdict[0] == det_g / cut.det_w_minus
    assert len(built) == 2 and count["passes"] == 0
    assert cut.side_v is cut.side_v and len(built) == 3  # built when read
    built.clear()
    cut = surgery.cut_and_fill(g, ("m1", "m2"))
    assert len(built) == 2 and count["passes"] == 2  # filled_v and filled_w
    assert {"decorated_v_verdict", "decorated_w_verdict"} <= vars(cut).keys()
    assert not {"decorated_v", "decorated_w", "side_v", "side_w"} & vars(cut).keys()


def _count_array_setups(monkeypatch) -> list:
    setups = []
    arrays = laufer._run_arrays

    def counted(g):
        setups.append(len(g))
        return arrays(g)

    monkeypatch.setattr(laufer, "_run_arrays", counted)
    return setups


def _count_runs(monkeypatch) -> list:
    """(vertex count, frozen set, asked to stop at the first jump, steps
    taken) of every Laufer run."""
    runs = []
    run = laufer._run

    def counted(g, record, frozen=(), stop=False):
        out = run(g, record, frozen, stop)
        runs.append((len(g), frozenset(frozen), stop, sum(out[0].values())))
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
    # Case1 selection and for the Case1 table.  Then 14 full runs, then up
    # to 15 runs stopped at their first jump, one frozen run per vertex for
    # m <= 1 and per cut vertex tried.  Now only the vertices of a plain
    # run's prefix get a frozen run (xc on the root and on the 7-vertex
    # child), and m1, whose lowered weight the Case1 node records, runs to
    # its end once.
    runs = _count_runs(monkeypatch)
    lo_certificate(two_star_chain())
    assert len(runs) == 6 and sum(r[3] for r in runs) == 20
    assert [r[2] for r in runs if r[:2] == (10, frozenset({"m1"}))] == [False]
    assert [r for r in runs if not r[2]] == [(10, frozenset({"m1"}), False, 16)]


def test_checker_run_counts(monkeypatch):
    # the checker of the same certificate, handed fresh graphs by a JSON
    # round trip: the Case1 table read its jump from the run frozen at m1,
    # stopped there, and ran it once more to its end for the lowered
    # weight.  m1 is off the root's prefix, so the jump is the plain run's,
    # and the one run frozen at m1 is the full run; every other run stops
    # at its first jump
    data = json.loads(json.dumps(certificate_to_json(lo_certificate(two_star_chain()))))
    cert = certificate_from_json(data)
    runs = _count_runs(monkeypatch)
    assert check_certificate(cert).ok
    assert len(runs) == 5 and sum(r[3] for r in runs) == 19
    assert [r[2] for r in runs if r[:2] == (10, frozenset({"m1"}))] == [False]
    assert [r for r in runs if not r[2]] == [(10, frozenset({"m1"}), False, 16)]


def test_large_tree_certificate_run_count(monkeypatch):
    # the benchmark's classify_large_inputs(3)[94], 120 vertices and 31
    # nodes once minimized: its build and check made 2,943 Laufer runs while
    # every m <= 1 test and cut-vertex scan made one frozen run per vertex
    t = perfbench_module("inputs").classify_large_inputs(3)[94]
    g = minimize(PlumbingGraph(t.weight_map(), t.edge_names()))
    runs = _count_runs(monkeypatch)
    text = json.dumps(certificate_to_json(lo_certificate(g)))
    assert check_certificate(certificate_from_json(json.loads(text))).ok
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == "1a53709fe791"
    assert (len(g), len(nodes(g)), len(runs)) == (120, 31, 88)


def test_m_le_1_sets_up_the_run_arrays_once(monkeypatch):
    # the plain run and one frozen run per vertex of its prefix, {xc}, on
    # the m = 2 root (one per vertex, 10, before the prefix was read), each
    # from the same arrays
    g = two_star_chain()
    setups = _count_array_setups(monkeypatch)
    runs = _count_runs(monkeypatch)
    assert laufer._least_bad(g, 1) is None
    assert [r[1] for r in runs] == [frozenset(), frozenset({"xc"})] and setups == [10]
    assert is_bad_set(g, nodes(g)) and len(runs) == 3 and setups == [10]


def test_least_bad_set_of_a_large_tree(monkeypatch):
    # the benchmark's classify_large_inputs(3)[94], minimized: an exhaustive
    # search by size would try every set of at most 5 of its 120 vertices,
    # about 2e8 of them, before the answer; the prefix tree tries 61
    t = perfbench_module("inputs").classify_large_inputs(3)[94]
    g = minimize(PlumbingGraph(t.weight_map(), t.edge_names()))
    tried = []
    bad_set = laufer.is_bad_set

    def counted(g, bad):
        tried.append(bad)
        return bad_set(g, bad)

    monkeypatch.setattr(laufer, "is_bad_set", counted)
    witness = frozenset({"v12", "v3", "v4", "v47", "v5", "v9"})
    assert laufer.min_bad(g) == (6, witness) and len(tried) == 61
    # the store keeps levels 0 and 1, the plain run and the one set of its
    # prefix: none of the 16 runs that level 6 filed stays
    assert sorted(map(len, g._stabilized)) == [0, 1]


def test_is_bad_set_builds_no_graph(monkeypatch):
    g = two_star_chain()
    built = _count_builds(monkeypatch)
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
    # (first jump, prefix, (Y, chi(Y))): {c} is bad, so no step jumps
    entry = (ref.jump, reference_prefix(g, bad), (ref.z_min, ref.chi_zmin))
    assert entry[:2] == (None, None)
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
    # the plain run of g jumps after stepping c: its prefix is {c}
    plain = reference_verdict(g)
    entry = (plain.jump, reference_prefix(g), (plain.z_min, plain.chi_zmin))
    assert verdict_fields(is_rational(g)) == plain and laufer._stored(g, frozenset()) == entry
    assert entry[1] == {"c"}


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
