import hashlib
import json
import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbcalc import surgery
from plumbcalc.errors import GraphStructureError, PlumbingError
from plumbcalc.graph import (
    PlumbingGraph,
    delete,
    is_minimal,
    minimize,
    nodes,
    parse_graph,
    rooted_preorder,
    serialize_graph,
)
from plumbcalc.lattice import definiteness, determinant, is_negative_definite
from plumbcalc.census import census_graphs
from plumbcalc.laufer import _least_bad, _stored, is_rational, min_bad
from plumbcalc.surgery import (
    TAG_BASE_M1,
    TAG_CASE1,
    TAG_CASE2,
    TAG_SEMIDEF_CUT,
    TAG_SEMIDEF_LEAF,
    _cut,
    _cut_vertex,
    _node_counts,
    _node_separating_edges,
    attach_string,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    cut_and_fill,
    lo_certificate,
    semidef_decompose,
)
from plumbcalc.seifert import negative_cf

from conftest import certify_inputs, make_star
from oracles import (
    cf_eval,
    cf_eval_convergents,
    oracle_det,
    reference_claims_match,
    reference_cut,
    reference_cut_vertex,
    reference_m_le_1,
    reference_min_bad,
    reference_negative_cf,
    reference_prefix,
    reference_verdict,
)


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


def _cf_outcome(expand, r):
    try:
        cf = expand(r)
    except PlumbingError as exc:
        return type(exc), str(exc)
    return cf.value, type(cf.value), cf.terms


def test_negative_cf_matches_fraction_loop():
    # slopes such as -N/(N-1) expand to N - 1 terms, so the bounds stay small
    slopes = {Fraction(p, q) for p in range(-300, 0) for q in range(1, 301)}
    for r in sorted(slopes) + [0, 1, Fraction(1, 2)]:
        assert _cf_outcome(negative_cf, r) == _cf_outcome(reference_negative_cf, r), r


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


_DELETE = object()
# words of the interpreter's own TypeError, ValueError, KeyError and
# RecursionError messages, which a decoding error must not pass on
_INTERPRETER_WORDING = (
    "indices", "bytes-like", "subscriptable", "iterable", "unpack", "Exceeds",
    "recursion", "'str'", "'int'", "'list'", "'dict'", "attribute",
)


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("claims",), "abc",
         "certificate node field 'claims' must be a JSON array, not a JSON string"),
        (("graph",), 5,
         "certificate node field 'graph' must be a JSON string, not a JSON integer"),
        (("claims", 0), ["connected", True, True],
         "claim must be a JSON object, not a JSON array"),
        (("jump",), [1, "c", 2],
         "certificate node field 'jump' must be a JSON object, not a JSON array"),
        (("children",), {"0": {}, "1": {}},
         "certificate node field 'children' must be a JSON array, not a JSON object"),
        (("claims", 0, "kind"), _DELETE, "claim lacks the key 'kind'"),
        (("children", 0), "BaseM1",
         "certificate node must be a JSON object, not a JSON string"),
        (("children", 1, "graph"), _DELETE, "certificate node lacks the key 'graph'"),
        (("edge",), None, "certificate node field 'edge' must be a JSON array, not null"),
        (("r",), 0.5,
         "certificate node field 'r' must be an integer or 'p/q' string, not a JSON number"),
        (("r",), "-1/2.0",
         "certificate node field 'r' must be an integer or 'p/q' string, not '-1/2.0'"),
        (("r",), "-" + "1" * 5000,
         "certificate node field 'r' must be an integer or 'p/q' string, not a number"
         " of more digits than the interpreter reads"),
        (("claims", 1, "got"), 1,
         "claim field 'got' must be true, false or an integer or 'p/q' string,"
         " not a JSON integer"),
        (("jump", "step"), True, "jump field 'step' must be a JSON integer, not a JSON boolean"),
        (("jump", "component"), _DELETE, "jump lacks the key 'component'"),
        (("children", 1, "seifert"), "star",
         "certificate node field 'seifert' must be a JSON object, not a JSON string"),
        (("children", 1, "seifert", "legs", 0), [2],
         "seifert leg must be a JSON array of two JSON integers"),
    ],
    ids=[
        "claims-string", "graph-number", "claim-list", "jump-list", "children-object",
        "claim-without-kind", "child-string", "node-without-graph", "edge-null",
        "r-float", "r-decimal", "r-too-long", "got-int", "step-bool",
        "jump-without-component", "seifert-string", "leg-short",
    ],
)
def test_decoding_errors_name_the_field_and_its_type(two_star_m2, where, value, message):
    data = certificate_to_json(lo_certificate(two_star_m2))
    target = data
    for key in where[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[where[-1]]
    else:
        target[where[-1]] = value
    with pytest.raises(PlumbingError) as exc:
        certificate_from_json(data)
    assert str(exc.value) == message
    assert not any(word in message for word in _INTERPRETER_WORDING), message


def test_decoding_a_certificate_past_the_recursion_limit():
    data = {"graph": "vertex a -2\n", "tag": "BaseM1", "claims": [], "children": []}
    for _ in range(5000):
        data = {"graph": "vertex a -2\n", "tag": "Case2", "claims": [], "children": [data]}
    with pytest.raises(PlumbingError) as exc:
        certificate_from_json(data)
    assert str(exc.value) == "certificate nests too deeply to decode"


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


def _walk_json(data):
    yield data
    for child in data["children"]:
        yield from _walk_json(child)


@pytest.fixture
def compared_claims(monkeypatch) -> list:
    """Every (stored, recomputed) claim pair that ``_check_node`` compares,
    as [stored, recomputed, accepted]: the checker accepted a pair when its
    loop asked for the next one."""
    pairs = []

    def recording(stored, fresh):
        for pair in zip_longest(stored, fresh):
            record = [*pair, False]
            pairs.append(record)
            yield pair
            record[2] = True

    monkeypatch.setattr(surgery, "zip_longest", recording)
    return pairs


def _assert_oracle_agrees(compared: list) -> tuple[int, int]:
    """(accepted, rejected) pairs, each as ``reference_claims_match`` says."""
    for stored, fresh, accepted in compared:
        assert reference_claims_match(stored, fresh) == accepted, (stored, fresh)
    accepted = sum(record[2] for record in compared)
    return accepted, len(compared) - accepted


def test_claim_comparison_matches_reference(compared_claims, census6, two_star_m2,
                                            case2_shallow, case2_deep):
    # acceptance 07's certificates and its seeded mutations, and the certify
    # workload's seed-0 certificates, in memory (int claims) and read back
    # from JSON (Fraction claims)
    pool = acceptance07_pool(census6, [two_star_m2, case2_shallow, case2_deep])
    for data in pool:
        assert check_certificate(certificate_from_json(data)).ok
    assert sum(not check_certificate(certificate_from_json(data)).ok
               for data in seeded_mutations(pool)) == 100
    for g in certify_inputs(0):
        cert = lo_certificate(g)
        assert check_certificate(cert).ok
        assert check_certificate(certificate_from_json(certificate_to_json(cert))).ok
    accepted, rejected = _assert_oracle_agrees(compared_claims)
    assert accepted > 10_000 and rejected > 0


def _swapped(value):
    """A claim value of the other JSON kind: true and false as "1" and "0",
    a number as true when it is not 0."""
    if isinstance(value, bool):
        return "1" if value else "0"
    return Fraction(value) != 0


def test_checker_tells_bools_from_numbers(compared_claims, two_star_m2):
    # True == 1 == Fraction(1) in Python: each claim's expected, then got,
    # written in the other JSON kind must still be rejected
    data = certificate_to_json(lo_certificate(two_star_m2))
    assert check_certificate(certificate_from_json(data)).ok
    forged_count = 0
    for i, node in enumerate(_walk_json(data)):
        for j in range(len(node["claims"])):
            for key in ("expected", "got"):
                forged = json.loads(json.dumps(data))
                claim = list(_walk_json(forged))[i]["claims"][j]
                claim[key] = _swapped(claim[key])
                res = check_certificate(certificate_from_json(forged))
                assert not res.ok and res.reason.startswith("stored claim"), res
                forged_count += 1
    accepted, rejected = _assert_oracle_agrees(compared_claims)
    assert rejected == forged_count == 48 and accepted > rejected


def test_checker_accepts_a_value_too_long_for_str():
    # a non-rational star whose determinant has 14,617 bits, more digits
    # than str() of an int writes by default (4,300): the claims are
    # compared without their text, so its in-memory certificate checks
    g = PlumbingGraph(
        {"c": -1, "a": -2, "b": -3, "d": -10**4400}, [("c", "a"), ("c", "b"), ("c", "d")]
    )
    cert = lo_certificate(g)
    assert cert.tag == TAG_BASE_M1 and determinant(g).numerator.bit_length() == 14617
    assert check_certificate(cert).ok


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
    # min_bad and the m <= 1 test of a BaseM1 leaf walk laufer's prefix
    # tree, on a fresh copy that holds no run yet; the reference tries every
    # vertex subset by size
    graphs = list(census6)  # 25,288 rational (m = 0) and 2,221 not
    for g in (two_star_m2, case2_deep, *certify_inputs(0)):
        graphs += [
            n.graph for n in _walk(lo_certificate(g))
            if n.tag in (TAG_BASE_M1, TAG_CASE1, TAG_CASE2)
        ]
    ms = {}
    for g in graphs:
        m, witness = reference_min_bad(g)
        assert min_bad(PlumbingGraph(g.weights(), g.edges)) == (m, witness), serialize_graph(g)
        h = PlumbingGraph(g.weights(), g.edges)
        assert (_least_bad(h, 1) is not None) == (m <= 1), serialize_graph(g)
        ms[m] = ms.get(m, 0) + 1
    assert ms == {0: 25288, 1: 2423, 2: 92, 3: 32}


def _assert_prefix_lemma(g) -> int:
    # on a non-rational graph, each vertex off the plain run's prefix
    # S(empty) has the plain run's first jump as its frozen jump (the prefix
    # lemma of laufer), and the m <= 1 test and the cut-vertex scan, which
    # make frozen runs for the prefix alone, equal their all-vertex
    # references.  The library reads a fresh copy, which holds no run yet.
    # Returns the number of vertices off the prefix
    plain = reference_verdict(g)
    if plain.rational:
        return 0
    prefix = reference_prefix(g)
    for v in set(g.vertices) - prefix:
        assert reference_verdict(g, {v}).jump == plain.jump, (g, v)
    h = PlumbingGraph(g.weights(), g.edges)
    assert _stored(h, frozenset())[1] == prefix, g
    assert (_least_bad(h, 1) is not None) == reference_m_le_1(g), g
    for v in g.vertices:
        assert _cut_vertex(h, v) == reference_cut_vertex(g, v), (g, v)
    return len(g) - len(prefix)


def test_prefix_lemma_on_census6(census6):
    assert sum(map(_assert_prefix_lemma, census6)) == 10481


def test_prefix_lemma_on_certificate_graphs():
    # no census-6 graph has a vertex between two nodes, which is where the
    # cut-vertex scan reads a jump: the definite graphs of certificates do,
    # and in two of these certificates such a vertex is in the prefix
    for g in certify_inputs(0):
        for n in _walk(lo_certificate(g)):
            if n.tag in (TAG_BASE_M1, TAG_CASE1, TAG_CASE2):
                _assert_prefix_lemma(n.graph)


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


def test_node_branches_match_deletion(census6, two_star_m2):
    # the counts from one rooted fold against the definition: the component
    # of g - v holding its neighbour u holds below[u] nodes of g if u is a
    # child of v and up[v] if u is its parent, so a neighbour's branch holds
    # a node iff it has a positive count, and a root's below counts its
    # tree's nodes, in forests too; and the walk from u that never enters v
    # is that component, rooted at u, each other vertex after its parent,
    # along an edge
    star = make_star("z", -2, [-2, -2, -2])
    forests = [
        PlumbingGraph({**two_star_m2.weights(), "u": -2}, two_star_m2.edges),
        PlumbingGraph({**two_star_m2.weights(), **star[0]}, [*two_star_m2.edges, *star[1]]),
    ]
    for g in [*census6, *forests]:
        gnodes = set(nodes(g))
        below, parent, up = _node_counts(g)
        assert parent is g._parent
        for tree in g.component_vertex_sets():
            (root,) = (v for v in tree if parent[v] is None)
            assert below[root] == len(tree & gnodes), g
        for v in g.vertices:
            comps = delete(g, [v]).component_vertex_sets()
            for u in g.neighbors(v):
                want = len(next(c for c in comps if u in c) & gnodes)
                assert (below[u] if parent[u] == v else up[v]) == want, (g, v, u)
            for u in g.neighbors(v):
                walk = rooted_preorder(g, u, v)
                assert {x for x, _ in walk} == next(c for c in comps if u in c)
                assert len(walk) == len({x for x, _ in walk}) and walk[0] == (u, None)
                seen = {u}
                for x, p in walk[1:]:
                    assert p in seen and g.has_edge(x, p)
                    seen.add(x)


def test_cut_sides_match_deletion():
    for g in census_graphs(5, -5):
        for a, b in g.edges:
            comps = delete(g, edges=[(a, b)]).component_vertex_sets()
            for v, w in ((a, b), (b, a)):
                cut = _cut(g, v, w)
                assert [set(cut.side_v), set(cut.side_w)] == [
                    next(c for c in comps if u in c) for u in (v, w)
                ]


def _assert_cut_matches_reference(g, v, w) -> PlumbingGraph:
    # every field, in the reference's types; the sides and decorated graphs
    # are read last, as they are built when read.  Each decorated side's
    # fold equals the determinant and definiteness of the reference's built
    # graph, and its determinant the generic elimination.  Returns the
    # reference's decorated v-side
    cut, ref = _cut(g, v, w), reference_cut(g, v, w)
    for name in ("edge", "det_w", "det_w_minus", "r"):
        got, want = getattr(cut, name), getattr(ref, name)
        assert (got, type(got)) == (want, type(want)), (g, v, w, name)
    assert type(cut.det_w) is Fraction and type(cut.r) is Fraction
    assert (cut.filled_v, cut.filled_w) == (ref.filled_v, ref.filled_w)
    folds = cut.decorated_v_verdict, cut.decorated_w_verdict
    assert (cut.side_v, cut.side_w) == (ref.side_v, ref.side_w)
    decorated = ref.decorated_v, ref.decorated_w
    assert (cut.decorated_v, cut.decorated_w) == decorated
    for (det, defn), built in zip(folds, decorated):
        assert type(det) is Fraction
        assert (det, defn) == (determinant(built), definiteness(built)), (g, v, w)
        assert det == oracle_det(built), (g, v, w)
    assert folds[1][0] == 0 and folds[0][1].is_negative_definite
    return decorated[0]


def test_cut_matches_reference_on_census5():
    # both orientations of every census-5 edge; then each distinct decorated
    # v-side that carries a Fraction weight (1/r is not an integer) cut
    # again on both orientations of every edge: the folds of a graph with
    # a slope vertex, on the v-side or the w-side of the cut
    decorated = {
        _assert_cut_matches_reference(g, v, w)
        for g in census_graphs(5, -5)
        for a, b in g.edges
        for v, w in ((a, b), (b, a))
    }
    sloped = [g for g in decorated if not g.has_integer_weights()]
    cuts = in_w = 0
    for g in sloped:
        (q,) = (u for u in g.vertices if type(g.weight(u)) is Fraction)
        for a, b in g.edges:
            for v, w in ((a, b), (b, a)):
                _assert_cut_matches_reference(g, v, w)
                cuts += 1
                in_w += q in {u for u, _ in rooted_preorder(g, w, v)}
    assert (len(decorated), len(sloped), cuts, in_w) == (22785, 12801, 46580, 23290)


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


def acceptance07_pool(census6, fixtures) -> list[dict]:
    """The certificate JSON of acceptance 07: every minimal non-rational
    census-6 graph, then the fixtures."""
    targets = [g for g in census6 if is_minimal(g) and not is_rational(g).rational]
    return [certificate_to_json(lo_certificate(g)) for g in targets + fixtures]


def seeded_mutations(pool: list[dict]) -> list[dict]:
    """Acceptance 07's 100 mutated certificates, drawn from the last three
    certificates of ``pool`` and 20 others."""
    rng = random.Random(4096)
    mutation_pool = pool[-3:] + rng.sample(pool, 20)
    mutated = []
    for _ in range(100):
        data = json.loads(json.dumps(rng.choice(mutation_pool)))
        _mutate(data, rng)
        mutated.append(data)
    return mutated


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
