import hashlib
import json
import random
import tracemalloc
from itertools import zip_longest

import pytest

from plumbcalc.census import (
    CensusRecord,
    _census_roots,
    _record_for_text,
    _tree_code,
    census,
    census_graphs,
    minimal_det_one,
)
from plumbcalc.classify import classify, report_to_json
from plumbcalc.errors import GraphStructureError, InternalCheckError
from plumbcalc.graph import (
    PlumbingGraph,
    canonical_code,
    is_isomorphic,
    is_minimal,
    parse_graph,
    serialize_graph,
)
from plumbcalc.lattice import determinant, is_negative_definite

from conftest import two_star_chain
from oracles import oracle_census, reference_census_roots


# -- classify ------------------------------------------------------------


def test_classify_e8(e8):
    rep = classify(e8)
    assert rep.negative_definite and rep.det == 1 and rep.zhs
    assert rep.rational and rep.l_space
    assert rep.lo is False and rep.taut_foliation is False


def test_classify_s237(s237):
    rep = classify(s237, with_bad_set=True)
    assert rep.det == 1 and rep.zhs
    assert rep.rational is False and rep.l_space is False
    assert rep.lo and rep.taut_foliation
    assert rep.m == 1 and rep.bad_set == ("c",)


def test_classify_single_minus_one():
    rep = classify(parse_graph("vertex a -1"))
    assert rep.rational and rep.det == 1


def test_classify_non_definite_has_null_topology():
    rep = classify(parse_graph("vertex a 1"))
    assert not rep.negative_definite
    assert rep.rational is None and rep.l_space is None
    assert rep.lo is None and rep.taut_foliation is None
    data = report_to_json(rep)
    assert data["rational"] is None


def test_classify_requires_connected():
    with pytest.raises(GraphStructureError):
        classify(PlumbingGraph({"a": -1, "b": -1}))


def test_classify_bad_set_cap_upper_bound():
    g = two_star_chain(chain_len=7)  # 15 vertices, nodes {xc, yc}
    assert len(g) == 15
    rep = classify(g, with_bad_set=True, bad_set_cap=14)
    assert rep.m == 2 and rep.m_is_upper_bound
    assert rep.bad_set == ("xc", "yc")
    data = report_to_json(rep)
    assert data["m_is_upper_bound"] is True


def test_report_json_schema(s237):
    data = report_to_json(classify(s237))
    for key in (
        "negative_definite",
        "det",
        "zhs",
        "rational",
        "l_space",
        "lo",
        "taut_foliation",
        "m",
        "bad_set",
    ):
        assert key in data
    assert data["det"] == "1"
    assert isinstance(data["rational"], bool)
    json.dumps(data)  # serializable


def test_report_json_key_order_and_consistency_checks(s237):
    rep = classify(s237, with_bad_set=True)._replace(certificate_path="c.json")
    data = report_to_json(rep)
    assert list(data) == [
        "negative_definite", "det", "zhs", "rational", "l_space", "lo",
        "taut_foliation", "m", "bad_set", "input", "m_is_upper_bound",
        "certificate_path",
    ]
    assert data["input"] == rep.graph_text and data["bad_set"] == list(rep.bad_set)
    assert (data["m"], data["m_is_upper_bound"], data["certificate_path"]) == (1, False, "c.json")
    assert list(report_to_json(classify(s237))) == list(data)[:10]
    for bad, match in (
        ({"l_space": True}, "l_space = rational"),
        ({"lo": False}, "lo = taut"),
        ({"taut_foliation": False}, "lo = taut"),
    ):
        with pytest.raises(InternalCheckError, match=match):
            report_to_json(rep._replace(**bad))
    # with no verdict (an indefinite graph) nothing is checked
    assert report_to_json(rep._replace(rational=None, l_space=True))["l_space"] is True


# -- census enumeration ---------------------------------------------------


def test_census_single_vertices():
    graphs = list(census_graphs(1, -3))
    assert len(graphs) == 3
    assert all(len(g) == 1 for g in graphs)
    assert all(classify(g).rational for g in graphs)


def test_census_matches_bruteforce_oracle():
    for max_n, wmin in ((4, -3), (5, -2)):
        fast = sorted(map(canonical_code, census_graphs(max_n, wmin)))
        slow = sorted(map(canonical_code, oracle_census(max_n, wmin)))
        assert fast == slow


def test_census_all_negative_definite_and_connected(census6):
    rng = random.Random(61)
    for g in rng.sample(census6, 200):
        assert g.is_connected()
        assert is_negative_definite(g)
        assert determinant(g) > 0


def test_census_no_isomorphic_duplicates(census6):
    codes = [canonical_code(g) for g in census6]
    assert len(codes) == len(set(codes))


def test_census_deterministic_order():
    first = [canonical_code(g) for g in census_graphs(4, -4)]
    second = [canonical_code(g) for g in census_graphs(4, -4)]
    assert first == second


def test_census_order_is_canonical_code_order(census6):
    """The enumerator sorts by codes it computes itself; canonical_code of
    the built graph is the second route to the same key and order."""
    for graphs, limits in ((census6, (6, -5)), (census_graphs(7, -3), (7, -3))):
        prev = None
        for g, roots in zip_longest(graphs, _census_roots(*limits)):
            code = canonical_code(g)
            assert _tree_code(roots) == code
            assert prev is None or prev < (len(g), code)
            prev = (len(g), code)


@pytest.mark.parametrize("limits", [(6, -5), (7, -3), (5, -9), (4, -9), (8, -1)])
def test_census_roots_match_one_sort_per_vertex_count(limits):
    # sorted one root weight at a time, the roots come in the order that one
    # sort of each whole vertex count gives
    assert list(_census_roots(*limits)) == list(reference_census_roots(*limits))


def test_census_roots_hold_one_root_weight_at_a_time():
    # one sort of the whole 6-vertex batch peaked at 5.0 MB under
    # tracemalloc; one root weight of it at a time, at 1.9 MB
    tracemalloc.start()
    try:
        count = sum(1 for _ in _census_roots(6, -5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 27509
    assert peak < 3.5e6, peak


def test_census_limit_validation():
    with pytest.raises(GraphStructureError):
        list(census_graphs(9, -5))
    with pytest.raises(GraphStructureError):
        list(census_graphs(6, -10))
    with pytest.raises(GraphStructureError):
        list(census_graphs(6, 0))


def test_census_records_classified():
    recs = list(census(3, -3))
    assert all(isinstance(r, CensusRecord) for r in recs)
    for r in recs:
        assert r.report.negative_definite
        if r.report.rational is not None:
            assert r.report.l_space == r.report.rational
        assert r.vertex_count == len(parse_graph(r.graph_text))


def test_census_serial_records_match_parse_route():
    """jobs=1 classifies the enumerated graph in hand; the pool's route
    serializes it and parses it back.  Both give the same record."""
    records = list(census(5, -4))
    texts = [serialize_graph(g) for g in census_graphs(5, -4)]
    assert len(records) == len(texts)
    for rec, text in zip(records, texts):
        old = _record_for_text(text)
        assert rec.graph_text == old.graph_text == text
        assert rec.vertex_count == old.vertex_count
        assert rec.report == old.report
        assert report_to_json(rec.report) == report_to_json(old.report)


def test_census_parallel_matches_serial():
    serial = [r.graph_text for r in census(4, -3)]
    parallel = [r.graph_text for r in census(4, -3, jobs=2)]
    assert serial == parallel


@pytest.mark.parametrize(
    "cpus, jobs, size", [(1, 2, 1), (2, 1000, 2), (4, 3, 3), (None, 5, 1)]
)
def test_census_pool_at_most_one_worker_per_cpu(monkeypatch, cpus, jobs, size):
    # a stand-in pool records the size asked for and maps in this process
    import multiprocessing
    import os

    asked = []

    class Pool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, items, chunksize=1):
            return map(func, items)

    monkeypatch.setattr(multiprocessing, "Pool", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    records = [r.graph_text for r in census(3, -2, jobs=jobs)]
    assert asked == [size]
    assert records == [r.graph_text for r in census(3, -2)]


# -- det-1 survey -----------------------------------------------------------


def test_minimal_det_one_cross_validated(census6):
    fast = minimal_det_one(6, -5)
    slow = [
        g
        for g in census6
        if is_minimal(g) and determinant(g) == 1
    ]
    assert sorted(canonical_code(r.graph) for r in fast) == sorted(
        canonical_code(g) for g in slow
    )
    verdicts = {canonical_code(r.graph): r.rational for r in fast}
    from plumbcalc.laufer import is_rational

    for g in slow:
        assert verdicts[canonical_code(g)] == is_rational(g).rational


def test_minimal_det_one_is_unchanged():
    # the graphs, their ids and order and their verdicts, pinned
    recs = minimal_det_one(6, -5)
    text = "".join(f"{serialize_graph(r.graph)}{r.rational}\n" for r in recs)
    assert (len(recs), sum(r.rational for r in recs)) == (11, 1)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "eed0919618f795d8"


def test_minimal_det_one_members_are_valid():
    recs = minimal_det_one(6, -5)
    for r in recs:
        assert determinant(r.graph) == 1
        assert is_minimal(r.graph)
        assert is_negative_definite(r.graph)
    codes = [canonical_code(r.graph) for r in recs]
    assert len(codes) == len(set(codes))
    keys = [(len(r.graph), code) for r, code in zip(recs, codes)]
    assert keys == sorted(keys)


def test_minimal_det_one_finds_s237(s237):
    recs = minimal_det_one(4, -7)
    assert any(is_isomorphic(r.graph, s237)[0] and not r.rational for r in recs)
