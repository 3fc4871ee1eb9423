import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbcalc.errors import GraphStructureError, ParseError
from plumbcalc.graph import (
    _GRAMMAR_RE,
    PlumbingGraph,
    _is_centroid,
    _parse_lines,
    blow_down,
    blow_up_edge,
    branch_counts,
    canonical_code,
    components,
    delete,
    fresh_ids,
    is_isomorphic,
    is_minimal,
    minimize,
    nodes,
    parse_fraction,
    parse_graph,
    rooted_preorder,
    serialize_graph,
    subgraph,
)
from plumbcalc.census import census_graphs
from plumbcalc.lattice import determinant
from plumbcalc.surgery import lo_certificate

from conftest import certify_inputs, perfbench_module
from oracles import (
    pruefer_trees,
    reference_build,
    reference_canonical_code,
    reference_components,
    reference_fresh_ids,
    reference_minimize,
    reference_parse_graph,
    with_weight,
)


def random_tree(rng: random.Random, n: int, wmin: int = -5) -> PlumbingGraph:
    ws = {f"t{i}": rng.randint(wmin, -1) for i in range(n)}
    edges = [(f"t{i}", f"t{rng.randrange(i)}") for i in range(1, n)]
    return PlumbingGraph(ws, edges)


# -- parsing ----------------------------------------------------------------


def test_parse_single_vertex():
    g = parse_graph("vertex a -1")
    assert g.vertices == ("a",) and g.weight("a") == -1


def test_parse_two_vertex_path():
    g = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    assert g.has_edge("a", "b") and len(g) == 2


def test_parse_comments_and_blank_lines():
    g = parse_graph("# header\n\nvertex a -2  # trailing\n")
    assert g.weight("a") == -2


def test_parse_fractional_weight():
    g = parse_graph("vertex a -7/2\nvertex b -4/2\nvertex c +3")
    assert g.weight("a") == Fraction(-7, 2) and type(g.weight("a")) is Fraction
    assert g.weight("b") == -2 and type(g.weight("b")) is int
    assert g.weight("c") == 3 and type(g.weight("c")) is int
    assert type(parse_fraction("-3")) is Fraction and parse_fraction("-3") == -3


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("vertex a -1\nedge a a", "loop"),
        ("vertex a -1\nvertex a -2", "duplicate"),
        ("vertex a -1\nedge a b", "undeclared"),
        ("vertex a -1\nvertex b -1\nedge a b\nedge b a", "multi-edge"),
        (
            "vertex a -1\nvertex b -1\nvertex c -1\n"
            "edge a b\nedge b c\nedge c a",
            "cycle",
        ),
        ("vertex a one", "invalid weight"),
        ("vertex a 1/0", "invalid weight"),
        ("vertex a \u0663", "invalid weight"),  # ARABIC-INDIC DIGIT THREE
        ("vertex a " + "9" * 5000, "invalid weight"),  # past the digit limit
        ("flurb a b", "unknown directive"),
        ("vertex a", "expected"),
        ("vertex a* -1", "invalid vertex id"),
        # the serialized form, which the tokenizer reads: each fault is
        # named by the line parser, with its line
        ("vertex a -1\nedge a a\n", "line 2: loop"),
        ("vertex a -1\nvertex a -2\n", "line 2: duplicate"),
        ("vertex a -1\nedge a b\n", "line 2: edge to undeclared vertex 'b'"),
        ("vertex a -1\nvertex b -1\nedge a b\nedge b a\n", "line 4: multi-edge"),
        ("vertex a -1\nvertex b -1\nvertex c -1\nedge a b\nedge b c\nedge c a\n", "line 6: cycle"),
        ("vertex a " + "9" * 5000 + "\n", "line 1: invalid weight"),
        ("vertex a -1\nedge a b\nvertex b -1\n", "line 2: edge to undeclared vertex 'b'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_parse_long_path_and_multi_edge_line():
    n = 3000
    lines = [f"vertex v{i} -2" for i in range(n)]
    lines += [f"edge v{i} v{i + 1}" for i in range(n - 1)]
    g = parse_graph("\n".join(lines))
    assert len(g) == n and len(g.edges) == n - 1
    lines.append(f"edge v{n // 2} v{n // 2 - 1}")  # reversed duplicate
    with pytest.raises(ParseError, match="multi-edge") as info:
        parse_graph("\n".join(lines))
    assert info.value.line == len(lines)


def test_parse_error_reports_line_number():
    for text in ("vertex a -1\nvertex a -1", "vertex a -1\nvertex b 1/0"):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line == 2


# "directive id weight" lines, mostly from the file format's own words
_GRAPH_LINES = st.lists(
    st.tuples(
        st.sampled_from(["vertex", "edge", "#", ""]) | st.text(max_size=3),
        st.sampled_from(["a", "b"]) | st.text(max_size=3),
        st.sampled_from(["a", "-2", "-7/2", "1/0", "+3", "\u0663"]) | st.text(max_size=6),
    ).map(" ".join)
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(st.text() | _GRAPH_LINES)
def test_parse_graph_raises_only_parse_error(text):
    try:
        parse_graph(text)
    except ParseError:
        pass


def _parsed(parse, text):
    """The graph's weights with their types, edges, adjacency and text
    form, or the ``ParseError``'s message and line."""
    try:
        g = parse(text)
    except ParseError as exc:
        return str(exc), exc.line
    weights = [(v, w, type(w)) for v, w in g.weights().items()]
    return weights, g.edges, {v: g.neighbors(v) for v in g.vertices}, serialize_graph(g)


def _assert_parsers_agree(text):
    """``parse_graph`` (the tokenizer on serialized text), ``_parse_lines``
    and the reference parser give the same graph or the same error."""
    parsed = _parsed(parse_graph, text)
    assert parsed == _parsed(_parse_lines, text) == _parsed(reference_parse_graph, text)


@settings(max_examples=300, deadline=None)
@given(_GRAPH_LINES | _GRAPH_LINES.map(lambda text: text + "\n") | st.text())
def test_parse_graph_matches_reference(text):
    _assert_parsers_agree(text)


_BAD_WEIGHTS = ["1/0", "x", "1.5", "1_000", "\u0663", "9" * 5000, "-", "2/-3"]


@st.composite
def _faulty_files(draw):
    """A valid graph file, each edge on a random line after its ends'
    lines, and one line of a random kind of fault, or none, put in at a
    random line.  The file has comments and blank lines, or is in the
    serialized form (vertex lines first, integer weights, each line ended
    by a newline), which the tokenizer reads."""
    n = draw(st.integers(1, 7))
    ids = [f"v{i}" for i in range(n)]
    serialized = draw(st.booleans())
    forms = ["-2", "-1", "007", "-0", "9" * 40] + ([] if serialized else ["+3", "-7/2", "4/2"])
    forms = st.sampled_from(forms)
    lines = [f"vertex {v} {draw(forms)}" for v in ids]
    edges = [(ids[i], ids[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    for v, p in edges:  # p comes before v
        after = next(i for i, x in enumerate(lines) if x.startswith(f"vertex {v} "))
        at = draw(st.integers(after + 1, len(lines)))
        lines.insert(at, f"edge {v} {p}" if draw(st.booleans()) else f"edge {p} {v}")
    if not serialized:
        for extra in draw(st.lists(st.sampled_from(["", "# note", "  \t", "#"]), max_size=3)):
            lines.insert(draw(st.integers(0, len(lines))), extra)
        if draw(st.booleans()):
            at = draw(st.integers(0, len(lines) - 1))
            lines[at] += " # trailing"
    v, w = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
    chords = [
        (a, b) for a in ids for b in ids if a < b and (a, b) not in edges and (b, a) not in edges
    ]
    faults = {
        "none": None,
        "directive": "flurb a b",
        "vertex arity": draw(st.sampled_from(["vertex", "vertex x", "vertex x -2 -3"])),
        "edge arity": draw(st.sampled_from(["edge", f"edge {v}", f"edge {v} {w} {v}"])),
        "id": draw(st.sampled_from(["vertex a* -1", "vertex \u00e9 -1", "vertex a-b -2"])),
        "duplicate": f"vertex {v} -2",
        "weight": f"vertex x {draw(st.sampled_from(_BAD_WEIGHTS))}",
        "loop": f"edge {v} {v}",
        "undeclared": draw(st.sampled_from([f"edge {v} zz", f"edge zz {v}"])),
        "multi-edge": "edge {} {}".format(*draw(st.permutations(draw(st.sampled_from(edges)))))
        if edges else None,
        "cycle": "edge {} {}".format(*draw(st.sampled_from(chords))) if chords else None,
    }
    kind = draw(st.sampled_from(sorted(faults)))
    if kind == "undeclared" and draw(st.booleans()):
        lines.append("vertex zz -2")  # declared, but mostly after its edge
    if faults[kind] is not None:
        lines.insert(draw(st.integers(0, len(lines))), faults[kind])
    if not serialized:
        return "\n".join(lines)
    lines.sort(key=lambda line: line.startswith("edge"))  # stable: edges keep their order
    return "".join(line + "\n" for line in lines)


@settings(max_examples=500, deadline=None)
@given(_faulty_files())
def test_parse_graph_matches_reference_on_one_fault(text):
    _assert_parsers_agree(text)


def test_parse_graph_matches_reference_on_benchmark_texts(census6):
    # the serialized census, every graph of the certificates of the certify
    # inputs and the classify-large files: all in the form the tokenizer reads
    inputs = perfbench_module("inputs")
    graphs = list(census6)
    for g in certify_inputs(0):
        stack = [lo_certificate(g)]
        while stack:
            node = stack.pop()
            graphs.append(node.graph)
            stack.extend(node.children)
    texts = [serialize_graph(g) for g in graphs]
    texts += [t.text() for t in inputs.classify_large_inputs(0) + inputs.classify_large_inputs(1)]
    for text in texts:
        _assert_parsers_agree(text)
    tokenized = sum(1 for text in texts if _GRAMMAR_RE.fullmatch(text))
    assert (len(texts), tokenized) == (28419, 28419)


_SERIALIZED = "vertex a -2\nvertex b -3\nvertex c -1\nedge a b\nedge b c\n"


@pytest.mark.parametrize(
    "text, tokenized",
    [
        (_SERIALIZED, True),
        ("", True),
        (_SERIALIZED.replace("edge a b", "vertex b -4\nedge a b"), True),  # duplicate id
        (_SERIALIZED + "edge c c\n", True),  # loop
        (_SERIALIZED + "edge b a\n", True),  # repeated edge
        (_SERIALIZED + "edge c a\n", True),  # cycle
        (_SERIALIZED + "edge c d\n", True),  # undeclared end
        (_SERIALIZED + "edge c d\nvertex d -2\n", False),  # end declared later
        (_SERIALIZED.replace("-3", "-" + "9" * 5000), True),  # past the digit limit
        (_SERIALIZED.replace("-3", "+7"), False),
        (_SERIALIZED.replace("-3", "007"), True),
        (_SERIALIZED.replace("-3", "-7/2"), False),
        (_SERIALIZED + "vertex d -2\n", False),  # vertex line after an edge line
        (_SERIALIZED.replace("vertex b", "vertex\tb"), False),
        (_SERIALIZED.replace("\n", "\r\n"), False),
        (_SERIALIZED.replace("edge a b", "edge a b  # first edge"), False),
        (_SERIALIZED[:-1], False),  # no final newline
    ],
    ids=[
        "serialized", "empty", "duplicate", "loop", "repeat", "cycle", "undeclared",
        "declared-later", "5000-digits", "plus", "leading-zeros", "slope",
        "vertex-after-edge", "tab", "crlf", "comment", "no-final-newline",
    ],
)
def test_tokenizer_matches_line_parser_on_one_edit(text, tokenized):
    # one-edit mutations of a serialized text: those left in the form the
    # tokenizer reads, and those sent to the line parser
    assert bool(_GRAMMAR_RE.fullmatch(text)) == tokenized
    _assert_parsers_agree(text)


def test_parse_cycle_error_names_its_line():
    cycle = "vertex a -1\nvertex b -1\nvertex c -1\nedge a b\nedge b c\nedge c a"
    with pytest.raises(ParseError) as err:
        parse_graph(cycle + "\n# closed")
    assert str(err.value) == "line 6: cycle detected through edge 'c'-'a'"
    assert err.value.line == 6
    # a cycle is reported only when no line has another fault
    with pytest.raises(ParseError) as err:
        parse_graph(cycle + "\nedge a c")
    assert str(err.value) == "line 7: multi-edge between 'a' and 'c'"


def test_serialize_parse_round_trip(s237):
    assert parse_graph(serialize_graph(s237)) == s237


def test_serialize_is_canonical():
    a = parse_graph("vertex b -2\nvertex a -2\nedge b a")
    b = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    assert serialize_graph(a) == serialize_graph(b)


# -- basic structure --------------------------------------------------------


def test_integral_weights_are_int():
    a, b = PlumbingGraph({"a": -2}), PlumbingGraph({"a": Fraction(-2)})
    assert a == b and hash(a) == hash(b)
    assert serialize_graph(a) == serialize_graph(b) == "vertex a -2\n"
    assert type(a.weight("a")) is int and type(b.weight("a")) is int
    assert type(parse_graph("vertex a -2").weight("a")) is int
    given = PlumbingGraph({"a": "-3", "b": True}).weights()
    assert given == {"a": -3, "b": 1} and all(type(w) is int for w in given.values())


@pytest.mark.parametrize(
    "w",
    [0.1, 2.0, "1e2", " 3 ", "\u0663", float("nan"), float("inf"), None, "x", "9" * 5000],
    ids=["0.1", "2.0", "'1e2'", "' 3 '", "arabic-indic-3", "nan", "inf", "None", "'x'", "5000-digits"],
)
def test_constructor_rejects_what_the_parser_rejects(w):
    # a weight is a numbers.Rational or a string of the file format: no
    # float, however integral, and no text that parse_graph turns down
    with pytest.raises(GraphStructureError, match=r"^invalid weight .* of vertex 'a'$"):
        PlumbingGraph({"a": w})
    if isinstance(w, str) and w.split() == [w]:  # a weight token of a file
        with pytest.raises(ParseError):
            parse_graph(f"vertex a {w}")


def test_slope_weights_stay_fraction():
    g = parse_graph("vertex a -7/2\nvertex b -2\nedge a b")
    assert g.weight("a") == Fraction(-7, 2) and type(g.weight("a")) is Fraction
    assert not g.has_integer_weights()
    assert type(with_weight(g, "a", Fraction(-6, 2)).weight("a")) is int
    assert type(with_weight(g, "b", Fraction(-5, 3)).weight("b")) is Fraction
    up = blow_up_edge(g, ("a", "b"))
    assert type(up.weight("a")) is Fraction and up.weight("a") == Fraction(-9, 2)
    assert [type(up.weight(v)) for v in ("b", "b1")] == [int, int]
    assert up.has_integer_weights() is False
    assert with_weight(g, "a", -4).has_integer_weights()
    slope = Fraction(-5, 3)
    assert PlumbingGraph({"a": slope}).weight("a") is slope


_IDS = ["a", "b", "c", "d", "e", "f"]


@st.composite
def _weights_and_edges(draw):
    """Weights on some of a few ids and an edge list: a random forest on
    them with loops, repeated or reversed edges, edges to undeclared ids
    and cycles put in at random places."""
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=1, unique=True))
    forms = st.sampled_from([-2, Fraction(-4, 2), Fraction(-7, 2), "-3", "5/3", True])
    weights = {v: draw(forms) for v in ids}
    parent = {v: draw(st.sampled_from(ids[:i])) for i, v in enumerate(ids) if i}
    parent = {v: p for v, p in parent.items() if draw(st.booleans())}
    edges = list(parent.items())
    anywhere = st.sampled_from([*_IDS, "x"])
    faults = draw(st.lists(st.tuples(anywhere, anywhere), max_size=1))
    chords = []  # from each vertex to its ancestors two or more edges up
    for v, p in parent.items():
        while p in parent:
            p = parent[p]
            chords.append((v, p))
    for kind, most in ((edges, 1), (chords, 2)):
        if kind:  # repeats, then chords that close a cycle, either way round
            picked = draw(st.lists(st.sampled_from(kind), max_size=most))
            faults += [e if draw(st.booleans()) else e[::-1] for e in picked]
    for e in faults:
        edges.insert(draw(st.integers(0, len(edges))), e)
    return weights, edges


@settings(max_examples=500, deadline=None)
@given(_weights_and_edges(), st.booleans())
def test_constructor_matches_reference_build(case, one_shot):
    weights, edges = case
    passed = iter(edges) if one_shot else edges
    try:
        ws, es, adj = reference_build(weights, edges)
    except GraphStructureError as exc:
        with pytest.raises(GraphStructureError) as err:
            PlumbingGraph(weights, passed)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return
    g = PlumbingGraph(weights, passed)
    assert g.weights() == ws and set(g.edges) == es
    assert [type(w) for w in g.weights().values()] == [type(w) for w in ws.values()]
    assert {v: g.neighbors(v) for v in g.vertices} == adj


def test_valency(s237):
    # a vertex's valency is its degree
    assert s237.degree("c") == 3
    assert s237.degree("p2") == 1
    g = parse_graph("vertex a -1")
    assert g.degree("a") == 0
    with pytest.raises(GraphStructureError, match="unknown vertex 'nope'"):
        g.degree("nope")


def test_nodes(s237, e8):
    assert nodes(s237) == ("c",)
    assert nodes(e8) == ("a5",)


@pytest.mark.parametrize("vid", ["a\n", "a b", "", "a*", 1])
def test_constructor_rejects_invalid_ids(vid):
    # "a\n" passed a $-anchored match, and serialize_graph then wrote a file
    # that parse_graph rejects
    with pytest.raises(GraphStructureError, match="invalid vertex id"):
        PlumbingGraph({vid: -1})


def test_constructor_names_the_first_faulty_vertex():
    # all-int weights have their ids checked in one match, and a fault
    # there is named by the per-vertex loop, in the order of the mapping
    cases = [
        ({"a": -1, "b c": -2, "d*": -3}, "invalid vertex id 'b c'"),
        ({"a": -1, "": -2}, "invalid vertex id ''"),
        ({"a": -2, 7: -1, "b*": -1}, "invalid vertex id 7"),
        ({"a": "x", "b*": -1}, "invalid weight 'x' of vertex 'a'"),
        ({"a*": Fraction(1, 2), "b": "x"}, "invalid vertex id 'a*'"),
    ]
    for weights, message in cases:
        with pytest.raises(GraphStructureError) as err:
            PlumbingGraph(weights)
        assert str(err.value) == message


def test_disconnected_allowed_in_model():
    g = PlumbingGraph({"a": -1, "b": -2})
    assert not g.is_connected()
    assert len(components(g)) == 2


# -- blow-up / blow-down ----------------------------------------------------


def test_blow_up_edge_example():
    g = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    up = blow_up_edge(g, ("a", "b"))
    assert sorted(up.weights().values()) == [-3, -3, -1]
    u = next(v for v in up.vertices if v not in ("a", "b"))
    assert up.weight(u) == -1
    assert up.has_edge("a", u) and up.has_edge(u, "b") and not up.has_edge("a", "b")


def test_blow_up_then_down_is_identity():
    g = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    up = blow_up_edge(g, ("a", "b"))
    u = next(v for v in up.vertices if v not in ("a", "b"))
    assert blow_down(up, u) == g


def test_blow_up_preserves_det_e8(e8):
    for e in e8.edges:
        assert determinant(blow_up_edge(e8, e)) == determinant(e8) == 1


def test_blow_moves_preserve_det_and_definiteness():
    from plumbcalc.lattice import definiteness

    rng = random.Random(13)
    for _ in range(30):
        g = random_tree(rng, rng.randint(2, 7))
        e = g.edges[rng.randrange(len(g.edges))]
        up = blow_up_edge(g, e)
        assert determinant(up) == determinant(g)
        assert definiteness(up).kind == definiteness(g).kind


def test_blow_down_three_valencies():
    # valency 0
    g = PlumbingGraph({"a": -1, "b": -2})
    assert blow_down(g, "a").vertices == ("b",)
    # valency 1
    g = parse_graph("vertex a -1\nvertex b -2\nedge a b")
    down = blow_down(g, "a")
    assert down.weights() == {"b": Fraction(-1)}
    # valency 2: neighbors become adjacent
    g = parse_graph("vertex a -3\nvertex b -1\nvertex c -3\nedge a b\nedge b c")
    down = blow_down(g, "b")
    assert down.has_edge("a", "c") and down.weight("a") == -2


def test_blow_down_preconditions(s237):
    with pytest.raises(GraphStructureError):
        blow_down(s237, "p2")  # weight -2
    with pytest.raises(GraphStructureError):
        blow_down(s237, "c")  # valency 3 even though weight is -1


def test_blow_down_valency3_rejected():
    star = PlumbingGraph(
        {"c": -1, "x": -2, "y": -2, "z": -2},
        [("c", "x"), ("c", "y"), ("c", "z")],
    )
    with pytest.raises(GraphStructureError):
        blow_down(star, "c")


# -- minimize ---------------------------------------------------------------


def test_minimize_keeps_single_minus_one():
    g = parse_graph("vertex a -1")
    assert minimize(g) == g and is_minimal(g)


def test_minimize_chain_collapses_to_zero_vertex():
    # (-2)-(-1)-(-2) has det 0; blow-downs preserve det, so the end state
    # is a single 0-framed vertex (not (-1), whose det is 1).
    g = parse_graph("vertex a -2\nvertex b -1\nvertex c -2\nedge a b\nedge b c")
    end = minimize(g)
    assert len(end) == 1 and list(end.weights().values()) == [Fraction(0)]


def test_minimize_fixpoint(e8, s237):
    assert minimize(e8) == e8
    assert minimize(s237) == s237


def test_minimize_confluence_random_orders():
    # confluence holds on the negative definite side (unique minimal model);
    # indefinite graphs like (0)-(-1)-(-1) genuinely depend on the order
    from plumbcalc.lattice import is_negative_definite

    rng = random.Random(7)
    done = 0
    while done < 40:
        g = random_tree(rng, rng.randint(2, 8), wmin=-3)
        if not is_negative_definite(g):
            continue
        done += 1
        target = minimize(g)
        h = g
        while len(h) > 1:
            cands = [v for v in h.vertices if h.weight(v) == -1 and h.degree(v) <= 2]
            if not cands:
                break
            h = blow_down(h, rng.choice(cands))
        assert is_isomorphic(h, target)[0]


def test_minimize_matches_blow_down_loop(census6):
    # census-6 graphs with 1-3 blow-ups at random edges, then indefinite
    # trees, whose adjacent (-1)-vertices make the result depend on the
    # pick order; the ids of the surviving vertices must agree too
    rng = random.Random(11)
    trees = [random_tree(rng, rng.randint(2, 9), wmin=-2) for _ in range(3000)]
    for g in [*census6, *trees]:
        assert minimize(g) == reference_minimize(g)
        if not g.edges:
            continue
        for _ in range(rng.randint(1, 3)):
            g = blow_up_edge(g, rng.choice(g.edges))
        assert minimize(g) == reference_minimize(g)


def test_minimize_returns_a_minimal_graph_itself(census6):
    # the blow-down loop agrees on which graphs are minimal, and a minimal
    # one comes back as the same object, not a copy
    minimal = 0
    for g in census6:
        assert is_minimal(g) == (reference_minimize(g) == g)
        if is_minimal(g):
            minimal += 1
            assert minimize(g) is g
        else:
            assert is_minimal(minimize(g))
    assert 0 < minimal < len(census6)


# -- delete / components / subgraph ----------------------------------------


def test_delete_star_center(s237):
    rest = delete(s237, vertices=["c"])
    assert len(components(rest)) == 3
    assert all(len(c) == 1 for c in components(rest))


def test_delete_middle_edge():
    g = parse_graph(
        "vertex a -2\nvertex b -2\nvertex c -2\nvertex d -2\n"
        "edge a b\nedge b c\nedge c d"
    )
    halves = components(delete(g, edges=[("b", "c")]))
    assert sorted(len(h) for h in halves) == [2, 2]


def test_delete_closed_edge_neighborhood():
    # deleting both endpoints of an edge, as the det identity needs
    g = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    assert len(delete(g, vertices=["a", "b"])) == 0


def test_delete_unknown_raises(s237):
    with pytest.raises(GraphStructureError):
        delete(s237, vertices=["zz"])
    with pytest.raises(GraphStructureError):
        delete(s237, edges=[("p2", "p3")])


def test_edge_deletion_gives_two_components_random_trees():
    rng = random.Random(3)
    for _ in range(25):
        g = random_tree(rng, rng.randint(2, 9))
        for e in g.edges:
            assert len(components(delete(g, edges=[e]))) == 2


def test_subgraph_induced(s237):
    sub = subgraph(s237, ["c", "p2"])
    assert sub.has_edge("c", "p2") and len(sub) == 2


# -- rooted walks and branch counts -----------------------------------------


def test_rooted_preorder_covers_the_component_parents_first():
    rng = random.Random(16)
    forests = []
    for _ in range(10):  # two trees, the second's ids prefixed by "u"
        a, b = random_tree(rng, 5), random_tree(rng, 4)
        ws = {**a.weights(), **{"u" + v: w for v, w in b.weights().items()}}
        forests.append(
            PlumbingGraph(ws, [*a.edges, *(("u" + x, "u" + y) for x, y in b.edges)])
        )
    for g in [*census_graphs(5, -5), *forests]:
        for r in g.vertices:
            walk = rooted_preorder(g, r)
            comp = next(c for c in g.component_vertex_sets() if r in c)
            assert walk[0] == (r, None)
            assert len(walk) == len(comp) and {x for x, _ in walk} == comp
            seen = {r}
            for x, p in walk[1:]:
                assert p in seen and g.has_edge(x, p), (g, r)
                seen.add(x)


def tree_centroids(g: PlumbingGraph) -> tuple:
    """The 1 or 2 centroid vertices of each tree of ``g``, in id order, as
    ``canonical_code`` finds them: from one ``branch_counts`` fold."""
    counts = branch_counts(g, g.vertices)
    return tuple(v for v in g.vertices if _is_centroid(counts[v]))


def test_tree_centroids_and_branch_counts_match_deletion():
    # each vertex's heaviest branch, the largest component of g - v next to
    # v, found by deleting v; a forest's centroids are each tree's own
    rng = random.Random(9)
    forests = [_random_forest(rng)[1] for _ in range(20)]
    for g in [*census_graphs(5, -5), *forests]:
        heaviest = {}
        counts = branch_counts(g, g.vertices)
        for v in g.vertices:
            comps = delete(g, [v]).component_vertex_sets()
            assert counts[v] == {
                u: len(next(c for c in comps if u in c)) for u in g.neighbors(v)
            }, (g, v)
            heaviest[v] = max(counts[v].values(), default=0)
        cents = []
        for tree in reference_components(g):
            least = min(heaviest[v] for v in tree)
            cents += [v for v in tree if heaviest[v] == least]
            assert 1 <= len(set(cents) & tree) <= 2
        assert tree_centroids(g) == tuple(sorted(cents))


# -- isomorphism ------------------------------------------------------------


def test_isomorphic_relabeled_e8(e8):
    mapping = {v: f"z{i}" for i, v in enumerate(e8.vertices)}
    relabeled = PlumbingGraph(
        {mapping[v]: e8.weight(v) for v in e8.vertices},
        [(mapping[a], mapping[b]) for a, b in e8.edges],
    )
    ok, witness = is_isomorphic(e8, relabeled)
    assert ok
    for a, b in e8.edges:
        assert relabeled.has_edge(witness[a], witness[b])
    for v in e8.vertices:
        assert relabeled.weight(witness[v]) == e8.weight(v)


def test_isomorphic_symmetric_path():
    a = parse_graph("vertex a -2\nvertex b -3\nedge a b")
    b = parse_graph("vertex a -3\nvertex b -2\nedge a b")
    assert is_isomorphic(a, b)[0]


def test_not_isomorphic_weights():
    a = parse_graph("vertex a -2\nvertex b -2\nedge a b")
    b = parse_graph("vertex a -2\nvertex b -3\nedge a b")
    assert not is_isomorphic(a, b)[0]


def test_canonical_code_separates_small_census():
    # codes are equal exactly for isomorphic labeled trees
    seen = {}
    for edges in pruefer_trees(4):
        g = PlumbingGraph(
            {f"t{i}": -2 - (i % 2) for i in range(4)},
            [(f"t{a}", f"t{b}") for a, b in edges],
        )
        code = canonical_code(g)
        for other_code, other in seen.items():
            assert (code == other_code) == is_isomorphic(g, other)[0]
        seen[code] = g


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_isomorphism_invariant_under_relabeling(n, rng):
    g = random_tree(rng, n)
    names = [f"w{i}" for i in range(n)]
    rng.shuffle(names)
    mapping = dict(zip(g.vertices, names))
    h = PlumbingGraph(
        {mapping[v]: g.weight(v) for v in g.vertices},
        [(mapping[a], mapping[b]) for a, b in g.edges],
    )
    assert canonical_code(g) == canonical_code(h)
    assert is_isomorphic(g, h)[0]


def _disjoint_union(trees, names) -> PlumbingGraph:
    """The forest of ``trees`` in turn, their vertices renamed to ``names``."""
    keys = [(i, v) for i, t in enumerate(trees) for v in t.vertices]
    rename = dict(zip(keys, names))
    return PlumbingGraph(
        {rename[i, v]: t.weight(v) for i, t in enumerate(trees) for v in t.vertices},
        [(rename[i, a], rename[i, b]) for i, t in enumerate(trees) for a, b in t.edges],
    )


def _random_forest(rng: random.Random) -> tuple[list[PlumbingGraph], PlumbingGraph]:
    trees = [random_tree(rng, rng.randint(1, 6), -3) for _ in range(rng.randint(1, 4))]
    return trees, _disjoint_union(trees, [f"t{i}" for i in range(24)])


def test_forest_codes_isomorphisms_and_components_match_oracles():
    rng = random.Random(18)
    for _ in range(300):
        trees, g = _random_forest(rng)
        comps = reference_components(g)
        assert g.component_vertex_sets() == comps
        assert g.is_connected() == (len(comps) == 1)
        code = canonical_code(g)
        assert code == reference_canonical_code(g), g
        # relabelled, and the trees given in another order
        names = [f"w{i}" for i in range(len(g))]
        rng.shuffle(names)
        h = _disjoint_union(trees, names)
        rng.shuffle(trees)
        assert canonical_code(h) == canonical_code(_disjoint_union(trees, names)) == code
        ok, witness = is_isomorphic(g, h)
        assert ok and sorted(witness.values()) == sorted(h.vertices)
        assert all(h.weight(witness[v]) == g.weight(v) for v in g.vertices)
        assert all(h.has_edge(witness[a], witness[b]) for a, b in g.edges)
        v = rng.choice(g.vertices)
        assert is_isomorphic(with_weight(g, v, g.weight(v) - 1), h) == (False, None)


def test_codes_and_isomorphism_build_no_graph_on_a_forest(monkeypatch):
    # each component was built as a subgraph to root its codes
    rng = random.Random(7)
    trees = [random_tree(rng, n) for n in (5, 1, 4, 5)]
    g = _disjoint_union(trees, [f"t{i}" for i in range(15)])
    h = _disjoint_union(trees[::-1], [f"w{i}" for i in range(15)])
    lowered = with_weight(h, "w0", h.weight("w0") - 1)
    built = []
    init = PlumbingGraph.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlumbingGraph, "__init__", counted)
    assert canonical_code(g) == canonical_code(h)
    assert is_isomorphic(g, h)[0] and is_isomorphic(g, lowered) == (False, None)
    assert not built


def _code_shape(code):
    """(vertex count, nesting depth, weights seen) of a code, iteratively."""
    count, depth, weights = 0, 0, set()
    stack = [(code, 1)]
    while stack:
        (w, kids), d = stack.pop()
        count, depth = count + 1, max(depth, d)
        weights.add(w)
        stack.extend((k, d + 1) for k in kids)
    return count, depth, weights


def test_canonical_code_and_isomorphism_on_long_path():
    n = 1200
    path = PlumbingGraph(
        {f"p{i}": -2 for i in range(n)}, [(f"p{i}", f"p{i + 1}") for i in range(n - 1)]
    )
    (code,) = canonical_code(path)  # one component
    assert _code_shape(code) == (n, n // 2 + 1, {-2})
    names = [f"q{i}" for i in range(n)]
    random.Random(3).shuffle(names)
    relabel = dict(zip(path.vertices, names))
    other = PlumbingGraph(
        {relabel[v]: -2 for v in path.vertices},
        [(relabel[a], relabel[b]) for a, b in path.edges],
    )
    ok, witness = is_isomorphic(path, other)
    assert ok and sorted(witness) == sorted(path.vertices)
    assert all(other.has_edge(witness[a], witness[b]) for a, b in path.edges)
    heavier_end = PlumbingGraph(
        {f"p{i}": -2 if i else -3 for i in range(n)},
        [(f"p{i}", f"p{i + 1}") for i in range(n - 1)],
    )
    assert is_isomorphic(path, heavier_end) == (False, None)


def test_fresh_ids_skip_collisions():
    g = parse_graph("vertex q1 -2\nvertex q3 -2\nedge q1 q3")
    assert fresh_ids(g, "q", 3) == ["q2", "q4", "q5"]


def test_fresh_ids_match_reference_on_a_long_call():
    used = ["q1", "q2", "q7", "q40", "q999", "q1000", "q1500", "q2001", "q2004"]
    g = PlumbingGraph({v: -2 for v in used + ["b1"]}, [])
    got = fresh_ids(g, "q", 2000)
    assert got == reference_fresh_ids(g, "q", 2000)
    assert len(set(got)) == 2000 and not set(got) & set(used)
    assert got[:3] == ["q3", "q4", "q5"] and got[-1] == "q2009"
