import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbcalc.errors import GraphStructureError
from plumbcalc.graph import (
    PlumbingGraph,
    delete,
    minimize,
    nodes,
    parse_graph,
    serialize_graph,
)
from plumbcalc.lattice import definiteness, determinant, is_negative_definite
from plumbcalc.census import census_graphs
from plumbcalc.laufer import is_rational, min_bad
from plumbcalc.surgery import (
    TAG_BASE_M1,
    TAG_CASE1,
    TAG_CASE2,
    TAG_SEMIDEF_CUT,
    TAG_SEMIDEF_LEAF,
    _branch,
    _cut,
    _m_le_1,
    _node_branches,
    _node_separating_edges,
    attach_string,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    cut_and_fill,
    lo_certificate,
    semidef_decompose,
)
from plumbcalc.seifert import cf_eval, negative_cf

from conftest import certify_inputs, make_star
from oracles import cf_eval_convergents


# -- continued fractions -----------------------------------------------------


@pytest.mark.parametrize(
    "value, terms",
    [
        (Fraction(-3), (-3,)),
        (Fraction(-7, 2), (-4, -2)),
        (Fraction(-1, 2), (-1, -2)),
        (Fraction(-6, 5), (-2, -2, -2, -2, -2)),
    ],
)
def test_negative_cf_examples(value, terms):
    cf = negative_cf(value)
    assert cf.terms == terms
    assert cf_eval(cf.terms) == value


def test_negative_cf_rejects_nonnegative():
    for bad in (0, Fraction(1, 2), 3):
        with pytest.raises(GraphStructureError):
            negative_cf(bad)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_negative_cf_round_trip(p, q):
    r = Fraction(-p, q)
    cf = negative_cf(r)
    assert cf.terms[0] <= -1
    assert all(t <= -2 for t in cf.terms[1:])
    assert cf_eval(cf.terms) == r
    assert cf_eval_convergents(cf.terms) == r


def test_negative_cf_round_trip_bulk():
    rng = random.Random(71)
    for _ in range(10_000):
        r = Fraction(-rng.randint(1, 10**6), rng.randint(1, 10**6))
        assert cf_eval(negative_cf(r).terms) == r


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 400), st.integers(1, 399))
def test_cf_determinant_duality(p, q):
    # the string of -p/q (p > q > 0 coprime) has det p; minus its first
    # vertex, det q
    if q >= p or gcd(p, q) != 1:
        return
    cf = negative_cf(Fraction(-p, q))
    ids = [f"s{i}" for i in range(len(cf.terms))]
    g = PlumbingGraph(
        dict(zip(ids, cf.terms)), list(zip(ids, ids[1:]))
    )
    assert determinant(g) == p
    assert determinant(delete(g, vertices=[ids[0]])) == q


# -- attach_string -----------------------------------------------------------


def test_attach_integer_slope():
    g = parse_graph("vertex a -3")
    out = attach_string(g, "a", -2)
    assert len(out) == 2 and sorted(out.weights().values()) == [-3, -2]


def test_attach_half_gives_det_zero():
    g = parse_graph("vertex a -2")
    out = attach_string(g, "a", Fraction(-1, 2))
    assert sorted(out.weights().values()) == [-2, -2, -1]
    assert determinant(out) == 0


def test_attach_seven_halves():
    g = parse_graph("vertex a -2")
    out = attach_string(g, "a", Fraction(-7, 2))
    new = [v for v in out.vertices if v != "a"]
    assert sorted(out.weight(v) for v in new) == [-4, -2]
    # first term adjacent to the attachment point
    head = next(v for v in new if out.has_edge("a", v))
    assert out.weight(head) == -4


# -- cut_and_fill ------------------------------------------------------------


def test_cut_two_vertex_path():
    g = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    cut = cut_and_fill(g, ("a", "b"))
    assert cut.r == Fraction(-1, 2)
    assert determinant(cut.filled_w) == 0
    assert sorted(cut.filled_w.weights().values()) == [-2, -2, -1]
    assert determinant(cut.filled_v) == 3
    assert determinant(cut.decorated_v) * 1 == determinant(g)


def test_cut_e8_slope_decorated_identity(e8):
    det_g = determinant(e8)
    for a, b in e8.edges:
        for v, w in ((a, b), (b, a)):
            cut = cut_and_fill(e8, (v, w))
            side_w_minus = determinant(delete(cut.side_w, vertices=[w]))
            assert determinant(cut.decorated_v) == det_g / side_w_minus
            assert determinant(cut.decorated_w) == 0
            assert is_negative_definite(cut.filled_v)


def test_cut_two_star_separating_edge(two_star_m2):
    cut = cut_and_fill(two_star_m2, ("m1", "m2"))
    assert not is_rational(minimize(cut.filled_v)).rational


def test_cut_errors(s237):
    with pytest.raises(GraphStructureError):
        cut_and_fill(s237, ("p2", "p3"))  # not an edge
    with pytest.raises(GraphStructureError):
        cut_and_fill(parse_graph("vertex a 1\nvertex b -2\nedge a b"), ("a", "b"))


# -- certificates ------------------------------------------------------------


def test_certificate_base_case(s237):
    cert = lo_certificate(s237)
    assert cert.tag == TAG_BASE_M1 and not cert.children
    assert check_certificate(cert).ok


def test_certificate_two_star(two_star_m2):
    cert = lo_certificate(two_star_m2)
    assert cert.tag == TAG_CASE1
    recursing, det0 = cert.children
    assert recursing.tag in (TAG_BASE_M1, TAG_CASE1, TAG_CASE2)
    assert det0.tag in (TAG_SEMIDEF_CUT, TAG_SEMIDEF_LEAF)
    assert determinant(det0.graph) == 0
    assert len(nodes(recursing.graph)) < len(nodes(two_star_m2))
    assert check_certificate(cert).ok
    # a Fraction as the JSON parser gives it back, so that the checker's
    # report of a jump mismatch prints both sides alike
    assert type(cert.jump.stabilized_weight) is Fraction


def test_certificate_case2_shallow(case2_shallow):
    cert = lo_certificate(case2_shallow)
    assert cert.tag == TAG_CASE2
    (child,) = cert.children
    assert child.tag == TAG_BASE_M1
    assert check_certificate(cert).ok


def test_certificate_case2_deep(case2_deep):
    cert = lo_certificate(case2_deep)
    assert cert.tag == TAG_CASE2
    (child,) = cert.children
    assert child.tag == TAG_CASE1
    assert check_certificate(cert).ok


def _chain_of_six_stars() -> PlumbingGraph:
    """Six Sigma(2,3,11) stars (centre -1) joined tip to tip through -4
    vertices: 29 vertices."""
    ws, edges = {}, []
    for i in range(6):
        star_ws, star_edges = make_star(f"s{i}", -1, [-2, -3, -11])
        ws.update(star_ws)
        edges += star_edges
        if i:
            ws[f"j{i}"] = -4
            edges += [(f"s{i - 1}l3", f"j{i}"), (f"j{i}", f"s{i}l2")]
    return PlumbingGraph(ws, edges)


def test_certificate_chain_of_six_stars():
    # m grows with the chain, so a bad-set search over subsets would take
    # minutes here
    cert = lo_certificate(_chain_of_six_stars())
    assert cert.tag == TAG_CASE1
    assert check_certificate(cert).ok


_CERTIFICATE_SHA256 = {
    "s237": "622667d440ae8cbf7109e055c30126f9ec32ac0f2578267a6532ff5827e0629d",
    "two_star_m2": "a9eda16070b6715ae8b021f94b1845f1e17e3a5cc7cf51bd123a06583764a158",
    "case2_shallow": "53ab32668f105a3eb185fbbd267cceb1ccedb4fa046a5fe95640f75ec3608e62",
    "case2_deep": "d926baeee33f5bd3ba35b2d6d0bf37e0367248bde7ed978dbdc2025d40230872",
    "six_stars": "977e00920e232f042d52eb48a31f061ecbf21279f4ba19e28fa248a2481146d4",
}


@pytest.mark.parametrize("name", sorted(_CERTIFICATE_SHA256))
def test_certificate_json_is_byte_identical(request, name):
    # certificate JSON is part of the contract: these digests pin its bytes
    g = _chain_of_six_stars() if name == "six_stars" else request.getfixturevalue(name)
    text = json.dumps(certificate_to_json(lo_certificate(g)), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == _CERTIFICATE_SHA256[name]


def test_certificate_input_validation(e8, s237):
    with pytest.raises(GraphStructureError):
        lo_certificate(e8)  # rational
    nonminimal = parse_graph(
        "vertex a -1\nvertex b -2\nedge a b"
    )
    with pytest.raises(GraphStructureError):
        lo_certificate(nonminimal)


def test_checker_rejects_base_leaf_over_rational(s237, e8):
    cert = lo_certificate(s237)
    data = certificate_to_json(cert)
    data["graph"] = serialize_graph(e8)
    res = check_certificate(certificate_from_json(data))
    assert not res.ok


def test_checker_rejects_perturbed_det(two_star_m2):
    data = certificate_to_json(lo_certificate(two_star_m2))
    mutated = json.loads(json.dumps(data))
    for claim in mutated["claims"]:
        if claim["kind"] == "det":
            claim["expected"] = str(Fraction(claim["expected"]) + 1)
    res = check_certificate(certificate_from_json(mutated))
    assert not res.ok and res.path == "root"


def test_certificate_json_round_trip(two_star_m2, case2_deep):
    for g in (two_star_m2, case2_deep):
        cert = lo_certificate(g)
        data = json.loads(json.dumps(certificate_to_json(cert)))
        back = certificate_from_json(data)
        assert check_certificate(back).ok
        assert certificate_to_json(back) == certificate_to_json(cert)


def test_checker_survives_garbage():
    res = check_certificate(
        certificate_from_json(
            {"graph": "vertex a -1", "tag": "BaseM1", "claims": [], "children": []}
        )
    )
    assert not res.ok  # rational graph, missing claims


def _base_leaf_json(g, not_rational, m_le_1):
    """A hand-written one-node BaseM1 certificate whose boolean claims are
    stored as given, expected and got alike."""
    det = str(determinant(g))
    claims = [
        ("connected", True), ("det", det), ("negative_definite", True),
        ("not_rational", not_rational), ("m_le_1", m_le_1),
    ]
    return {
        "graph": serialize_graph(g),
        "tag": TAG_BASE_M1,
        "claims": [{"kind": k, "expected": v, "got": v} for k, v in claims],
        "children": [],
    }


def test_checker_rejects_false_claims(two_star_m2):
    # each stored claim agrees with the recomputed value, but says false
    forgeries = [
        _base_leaf_json(parse_graph("vertex a -2"), not_rational=False, m_le_1=True),
        _base_leaf_json(two_star_m2, not_rational=True, m_le_1=False),
    ]
    for data in forgeries:
        res = check_certificate(certificate_from_json(data))
        assert not res.ok and res.path == "root"


def test_checker_tells_bools_from_numbers(two_star_m2):
    # True == 1 == Fraction(1) in Python: a number stored for a boolean
    # claim, or a boolean for a numeric one, must still be rejected
    data = certificate_to_json(lo_certificate(two_star_m2))
    connected, leaf_det = data["claims"][0], data["children"][0]["claims"][1]
    assert (connected["kind"], leaf_det["kind"], leaf_det["expected"]) == (
        "connected", "det", "1"
    )
    for claim, value in ((connected, "1"), (leaf_det, True)):
        original = claim["expected"]
        claim["expected"] = value
        assert not check_certificate(certificate_from_json(data)).ok
        claim["expected"] = original
    assert check_certificate(certificate_from_json(data)).ok


def _walk_json(data):
    yield data
    for child in data["children"]:
        yield from _walk_json(child)


def test_checker_verifies_seifert_data(two_star_m2):
    data = certificate_to_json(lo_certificate(two_star_m2))
    assert check_certificate(certificate_from_json(data)).ok
    tampers = [
        lambda s: s.update(e0=-99),
        lambda s: s["legs"].__setitem__(0, [97, 1]),
    ]
    for tamper in tampers:
        forged = json.loads(json.dumps(data))
        leaf = next(n for n in _walk_json(forged) if "seifert" in n)
        assert leaf["tag"] == TAG_SEMIDEF_LEAF
        tamper(leaf["seifert"])
        assert not check_certificate(certificate_from_json(forged)).ok


def test_checker_rejects_fields_a_tag_does_not_carry(two_star_m2, case2_shallow, s237):
    extra = {
        "edge": ["c", "p2"],
        "r": "-1/2",
        "jump": {"stabilized_weight": "-2", "step": 0, "vertex": "c",
                 "value": 2, "component": ["c"]},
        "seifert": {"e0": -1, "legs": [[2, 1], [3, 1], [7, 1]]},
    }
    certs = [lo_certificate(g) for g in (two_star_m2, case2_shallow, s237)]
    certs.append(semidef_decompose(cut_and_fill(two_star_m2, ("xl1", "xc")).filled_w))
    pool = [certificate_to_json(c) for c in certs]
    tried = set()
    for cert in pool:
        for i, node in enumerate(_walk_json(cert)):
            for key, value in extra.items():
                if key in node:
                    continue
                forged = json.loads(json.dumps(cert))
                target = list(_walk_json(forged))[i]
                target[key] = value
                assert not check_certificate(certificate_from_json(forged)).ok
                tried.add((node["tag"], key))
    assert {tag for tag, _ in tried} == {
        TAG_BASE_M1, TAG_CASE1, TAG_CASE2, TAG_SEMIDEF_CUT, TAG_SEMIDEF_LEAF
    }


def test_m_le_1_matches_min_bad(census6, two_star_m2, case2_deep):
    graphs = list(census6)  # 25,288 rational (m = 0) and 2,221 not
    for g in (two_star_m2, case2_deep):
        graphs += [
            n.graph for n in _walk(lo_certificate(g))
            if n.tag in (TAG_BASE_M1, TAG_CASE1, TAG_CASE2)
        ]
    ms = {}
    for g in graphs:
        m, _ = min_bad(g)
        assert _m_le_1(g) == (m <= 1), serialize_graph(g)
        ms[m] = ms.get(m, 0) + 1
    assert ms[0] == 25288 and ms[1] and ms[2]


# -- semidefinite decomposition ----------------------------------------------


def test_semidef_leaf_no_node():
    g = parse_graph("vertex a -2\nvertex b -1\nvertex c -2\nedge a b\nedge b c")
    cert = semidef_decompose(g)
    assert cert.tag == TAG_SEMIDEF_LEAF and not cert.children
    assert check_certificate(cert).ok


def test_semidef_two_node_graph(two_star_m2):
    # cutting off a leaf fills the side that still contains both star
    # cores -> det-0 with two nodes -> one SemidefCut with two leaves
    cut = cut_and_fill(two_star_m2, ("xl1", "xc"))
    g0 = cut.filled_w  # contains both nodes
    assert len(nodes(g0)) == 2 and determinant(g0) == 0
    cert = semidef_decompose(g0)
    assert cert.tag == TAG_SEMIDEF_CUT
    assert all(c.tag == TAG_SEMIDEF_LEAF for c in cert.children)
    for c in cert.children:
        assert determinant(c.graph) == 0
        assert definiteness(c.graph).is_negative_semidefinite
        assert len(nodes(c.graph)) <= 1
    assert check_certificate(cert).ok


def test_semidef_decompose_errors(s237):
    with pytest.raises(GraphStructureError):
        semidef_decompose(s237)  # det 1
    with pytest.raises(GraphStructureError):
        semidef_decompose(PlumbingGraph({"a": -2, "b": -2}))  # disconnected


def test_node_separating_edges_match_deletion(census6, two_star_m2):
    # one rooted pass against the definition: every component of g - e
    # holds a node.  Census graphs, the det-0 graphs of the seed-0
    # certificates, and forests the checker may be handed.
    det0 = [
        n.graph for g in certify_inputs(0) for n in _walk(lo_certificate(g))
        if n.tag in (TAG_SEMIDEF_CUT, TAG_SEMIDEF_LEAF)
    ]
    star = make_star("z", -2, [-2, -2, -2])
    forests = [
        PlumbingGraph({**two_star_m2.weights(), "u": -2}, two_star_m2.edges),
        PlumbingGraph({**two_star_m2.weights(), **star[0]}, [*two_star_m2.edges, *star[1]]),
    ]
    cut_edges = 0
    for g in [*census6, *det0, *forests]:
        gnodes = set(nodes(g))
        by_deletion = {
            e for e in g.edges
            if all(c & gnodes for c in delete(g, edges=[e]).component_vertex_sets())
        }
        assert _node_separating_edges(g) == by_deletion, g
        cut_edges += len(by_deletion)
    assert len(det0) == 189 and cut_edges > 1000
    assert _node_separating_edges(forests[0]) == set()
    assert _node_separating_edges(forests[1])


def test_node_branches_match_deletion(census6):
    # the table from one rooted pass against the definition: a neighbour u
    # of v is listed iff the component of g - v holding u holds a node of g;
    # and the walk from w that never enters v is that component
    for g in census6:
        gnodes = set(nodes(g))
        table = _node_branches(g)
        for v in g.vertices:
            comps = delete(g, [v]).component_vertex_sets()
            want = tuple(
                u for u in g.neighbors(v) if next(c for c in comps if u in c) & gnodes
            )
            assert table[v] == want, (g, v)
            for u in g.neighbors(v):
                assert _branch(g, u, v) == next(c for c in comps if u in c)


def test_cut_sides_match_deletion():
    for g in census_graphs(5, -5):
        for a, b in g.edges:
            comps = delete(g, edges=[(a, b)]).component_vertex_sets()
            for v, w in ((a, b), (b, a)):
                cut = _cut(g, v, w)
                assert [set(cut.side_v), set(cut.side_w)] == [
                    next(c for c in comps if u in c) for u in (v, w)
                ]


def test_cut_builds_each_decorated_graph_once(two_star_m2):
    cut = cut_and_fill(two_star_m2, ("m1", "m2"))
    assert cut.decorated_v is cut.decorated_v and cut.decorated_w is cut.decorated_w
    assert "decorated_v" not in vars(_cut(two_star_m2, "m1", "m2"))


def test_semidef_leaf_star_has_seifert_data(two_star_m2):
    cut = cut_and_fill(two_star_m2, ("m1", "m2"))
    cert = semidef_decompose(cut.filled_w)
    stars = [n for n in _walk(cert) if n.tag == TAG_SEMIDEF_LEAF and n.seifert]
    assert stars, "expected at least one leaf with extractable Seifert data"


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def test_random_certificate_mutations(two_star_m2, case2_deep, s237):
    rng = random.Random(99)
    pool = [
        certificate_to_json(lo_certificate(g))
        for g in (two_star_m2, case2_deep, s237)
    ]
    caught = 0
    trials = 60
    kinds = set()
    for _ in range(trials):
        data = json.loads(json.dumps(rng.choice(pool)))
        kinds.add(_mutate(data, rng))
        res = check_certificate(certificate_from_json(data))
        caught += not res.ok
    assert caught == trials
    assert kinds == {"claim", "r", "jump", "drop_claim", "seifert", "weight"}


def _json_nodes(data):
    yield data
    for child in data["children"]:
        yield from _json_nodes(child)


def _mutate(data, rng):
    """Apply one random semantic mutation somewhere in the tree and return
    its kind."""
    # walk to a random node
    node = data
    while node["children"] and rng.random() < 0.5:
        node = rng.choice(node["children"])
    kind = rng.randrange(6)
    if kind == 0 and node["claims"]:
        claim = rng.choice(node["claims"])
        if isinstance(claim["expected"], bool):
            claim["expected"] = not claim["expected"]
        else:
            claim["expected"] = str(Fraction(claim["expected"]) + 1)
        return "claim"
    if kind == 1 and "r" in node:
        node["r"] = str(Fraction(node["r"]) - 1)
        return "r"
    if kind == 2 and "jump" in node:
        node["jump"]["value"] += 1
        return "jump"
    if kind == 3 and node["claims"]:
        node["claims"].pop(rng.randrange(len(node["claims"])))
        return "drop_claim"
    # Seifert blocks sit on leaves deep in the tree, so any one may be hit
    stars = [n for n in _json_nodes(data) if "seifert" in n]
    if kind == 4 and stars:
        rng.choice(stars)["seifert"]["e0"] -= 1
        return "seifert"
    # perturb a weight in the graph text
    lines = node["graph"].splitlines()
    idx = [i for i, line in enumerate(lines) if line.startswith("vertex")]
    i = rng.choice(idx)
    parts = lines[i].split()
    parts[2] = str(int(Fraction(parts[2])) - 1 if "/" not in parts[2] else -9)
    lines[i] = " ".join(parts)
    node["graph"] = "\n".join(lines) + "\n"
    return "weight"
