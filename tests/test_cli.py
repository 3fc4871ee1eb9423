import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbcalc.cli import main
from plumbcalc.errors import PlumbingError
from plumbcalc.graph import parse_graph
from plumbcalc.laufer import zmin_multiplicities
from plumbcalc.surgery import (
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    lo_certificate,
)

from conftest import two_star_chain
from oracles import reference_zmin_lifo
from test_surgery import acceptance07_pool

ROOT = Path(__file__).resolve().parent.parent

E8_TEXT = (
    "vertex a1 -2\nvertex a2 -2\nvertex a3 -2\nvertex a4 -2\n"
    "vertex a5 -2\nvertex a6 -2\nvertex a7 -2\nvertex a8 -2\n"
    "edge a1 a2\nedge a2 a3\nedge a3 a4\nedge a4 a5\n"
    "edge a5 a6\nedge a6 a7\nedge a5 a8\n"
)
S237_TEXT = (
    "vertex c -1\nvertex p2 -2\nvertex p3 -3\nvertex p7 -7\n"
    "edge c p2\nedge c p3\nedge c p7\n"
)


@pytest.fixture
def e8_file(tmp_path):
    path = tmp_path / "e8.graph"
    path.write_text(E8_TEXT)
    return str(path)


@pytest.fixture
def s237_file(tmp_path):
    path = tmp_path / "s237.graph"
    path.write_text(S237_TEXT)
    return str(path)


def test_classify_text(e8_file, capsys):
    assert main(["classify", e8_file]) == 0
    out = capsys.readouterr().out
    assert "rational:           yes" in out
    assert "L-space:            yes" in out


def test_classify_run_past_a_million_steps(capsys):
    # no step cap: a valid tree whose run is long still classifies
    path = Path(__file__).with_name("long_run.graph")
    assert main(["classify", str(path)]) == 0
    assert "rational:           no" in capsys.readouterr().out
    g = parse_graph(path.read_text())
    z = zmin_multiplicities(g)
    assert sum(z.values()) - len(g) == 1_181_702
    assert z == reference_zmin_lifo(g)


def test_brieskorn_verdict_stops_at_the_first_jump(capsys):
    # sum Z_min is 34,169,951 on this 110-vertex graph; the verdict needs
    # the first jump only
    assert main(["brieskorn", "1009", "1013", "1019"]) == 0
    assert "rational=no" in capsys.readouterr().out


def test_classify_json(s237_file, capsys):
    assert main(["classify", s237_file, "--json", "--with-badset"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rational"] is False
    assert data["l_space"] is False and data["lo"] is True
    assert data["det"] == "1" and data["zhs"] is True
    assert data["m"] == 1 and data["bad_set"] == ["c"]


def test_classify_with_matrix(s237_file, capsys):
    assert main(["classify", s237_file, "--json", "--with-matrix"]) == 0
    data = json.loads(capsys.readouterr().out)
    rows = data["intersection_form"]["rows"]
    order = data["intersection_form"]["order"]
    assert order == ["c", "p2", "p3", "p7"]
    assert rows[0][0] == "-1" and rows[0][1] == "1"


def test_classify_with_certificate(s237_file, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["classify", s237_file, "--with-certificate", str(out)]) == 0
    report = capsys.readouterr().out
    assert str(out) in report
    data = json.loads(out.read_text())
    assert data["tag"] == "BaseM1"
    assert main(["check-certificate", str(out)]) == 0


def test_readme_classify_example(capsys):
    # the README example runs on the shipped file and prints what it shows
    command = "$ plumbcalc classify examples/s237.graph\n"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert (ROOT / "examples" / "s237.graph").read_text(encoding="utf-8") in readme
    shown = readme.split(command, 1)[1].split("```", 1)[0]
    assert main(["classify", str(ROOT / "examples" / "s237.graph")]) == 0
    assert capsys.readouterr().out == shown


def test_zmin_and_sequence(s237_file, capsys):
    assert main(["zmin", s237_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["z_min"] == {"c": 6, "p2": 3, "p3": 2, "p7": 1}
    assert data["rational"] is False and data["chi_z_min"] == "0"
    assert data["steps"][0]["vertex"] == "c" and data["steps"][0]["pairing"] == 2

    assert main(["sequence", s237_file]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("step")
    assert lines[1].split()[:3] == ["0", "c", "2"]
    assert lines[-1].startswith("final")

    assert main(["zmin", s237_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("step")
    assert "rational: no" in out


class _Writes(io.StringIO):
    """A stdout that keeps the length of its longest single write."""

    longest = 0

    def write(self, s):
        self.longest = max(self.longest, len(s))
        return super().write(s)


@pytest.mark.parametrize("command", ["zmin", "sequence"])
def test_json_is_written_as_it_is_encoded(s237_file, command):
    # a long run's step table is never held as one text: each write is a
    # short piece, and together they are the indented dump
    out = _Writes()
    with redirect_stdout(out):
        assert main([command, s237_file, "--json"]) == 0
    text = out.getvalue()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert out.longest < 40 and len(text) > 1000


def test_bad(s237_file, capsys):
    assert main(["bad", s237_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"m": 1, "witness": ["c"]}


def test_cut(s237_file, capsys):
    assert main(["cut", s237_file, "--edge", "c,p7", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert Fraction(data["r"]) == Fraction(-1, 7)
    assert "vertex q1" in data["filled_w"]


def test_cut_bad_edge_argument(s237_file, capsys):
    assert main(["cut", s237_file, "--edge", "c"]) == 1


def test_certificate_roundtrip(s237_file, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certificate", s237_file, "--out", str(out)]) == 0
    assert main(["check-certificate", str(out)]) == 0
    # corrupt it: flip one claim
    data = json.loads(out.read_text())
    for claim in data["claims"]:
        if claim["kind"] == "not_rational":
            claim["expected"] = False
    out.write_text(json.dumps(data))
    assert main(["check-certificate", str(out)]) == 1


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        "[]",
        '{"graph": "vertex a -1", "tag": "BaseM1", "claims": 5, "children": []}',
        '{"graph": 5, "tag": "BaseM1", "claims": [], "children": []}',
        '{"graph": "vertex a -1", "tag": "BaseM1", "claims": [], "children": [],'
        ' "jump": {}}',
        '{"graph": "vertex a -1", "tag": "BaseM1", "claims": [], "children": [[]]}',
        pytest.param("[" * 100_000 + "]" * 100_000, id="deeply-nested"),
    ],
)
def test_check_certificate_shape_errors(tmp_path, capsys, text):
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert main(["check-certificate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_certificate_of_rational_graph_fails(e8_file):
    assert main(["certificate", e8_file]) == 1


def test_seifert(s237_file, capsys):
    assert main(["seifert", s237_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["e0"] == -1
    assert data["legs"] == [[2, 1], [3, 1], [7, 1]]
    assert data["e"] == "-1/42"
    assert data["pinkham_nonrational"] is True and data["pinkham_witness"] == 1
    assert data["foliation_criterion"] is True
    assert data["rational"] is False


def test_brieskorn(capsys):
    assert main(["brieskorn", "2", "3", "5", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["e0"] == -2
    assert data["report"]["rational"] is True
    assert main(["brieskorn", "2", "4", "5"]) == 1  # not coprime


def test_census_cli(tmp_path, capsys):
    out_dir = tmp_path / "census"
    assert main(
        ["census", "--max-vertices", "3", "--min-weight", "-3", "--out", str(out_dir)]
    ) == 0
    rows = [
        json.loads(line)
        for line in (out_dir / "records.jsonl").read_text().splitlines()
    ]
    assert rows and all(r["report"]["negative_definite"] for r in rows)
    assert main(
        ["census", "--max-vertices", "99", "--min-weight", "-3", "--out", str(out_dir)]
    ) == 1


def test_missing_file_is_input_error(capsys):
    assert main(["classify", "/nonexistent/file.graph"]) == 1


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["classify", "--badset-cap", "x", "examples/s237.graph"], "invalid int"),
        (["classify"], "required: file"),
        ([], "required: command"),
    ],
)
def test_usage_errors_are_input_errors(argv, fragment, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: plumbcalc") and fragment in err
    assert "Traceback" not in err and "usage:" not in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--help"])
    assert info.value.code == 0
    assert "usage: plumbcalc classify" in capsys.readouterr().out


def test_parse_error_is_input_error(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex a -1\nedge a a\n")
    assert main(["classify", str(bad)]) == 1


def test_hostile_graph_files_are_input_errors(tmp_path, capsys):
    files = {
        "zero-denominator": b"vertex a -1\nvertex b 1/0\n",
        "arabic-indic-digit": "vertex a \u0663\n".encode(),
        "not-utf8": b"vertex a -2  # \xff\n",
        "empty": b"",
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    messages = []
    for path in [*(tmp_path / name for name in files), tmp_path]:  # and a directory
        assert main(["classify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        messages.append(err)
    assert messages[0].startswith("error: line 2: invalid weight '1/0'")
    assert messages[3] == "error: empty graph\n"


def _path_text(n: int, weight: int) -> str:
    return "".join(
        [f"vertex v{i} {weight}\n" for i in range(n)]
        + [f"edge v{i} v{i + 1}\n" for i in range(n - 1)]
    )


def test_results_past_the_digit_limit_are_input_errors(tmp_path, capsys):
    # valid negative definite trees whose results hold numbers of more digits
    # than Python writes as text: the path's determinant has about 4,800, and
    # so has the Seifert leg of the path hung at p7 of Sigma(2,3,7)
    path = tmp_path / "path.graph"
    path.write_text(_path_text(1600, -1000))
    hung = tmp_path / "hung.graph"
    hung.write_text(S237_TEXT + _path_text(1600, -1000) + "edge p7 v0\n")
    # cut --edge v0,v1 of that path fails too, after it builds a filled side
    # of 1.6 million vertices; the slope of this cut has 4,347 digits
    thirds = tmp_path / "thirds.graph"
    thirds.write_text(_path_text(10400, -3))
    message = f"error: the result holds a number of more than {sys.get_int_max_str_digits()}"
    for argv in [
        ["classify", path],
        ["classify", hung, "--json"],
        ["certificate", hung],
        ["seifert", hung],
        ["seifert", hung, "--json"],
        ["cut", thirds, "--edge", "v0,v1"],
        ["cut", thirds, "--edge", "v0,v1", "--json"],
    ]:
        assert main([str(a) for a in argv]) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message)
        assert err.count("\n") == 1 and "Traceback" not in err
    assert main(["zmin", str(hung)]) == 0
    assert "rational: no" in capsys.readouterr().out


def _run_check(path: Path, text: str) -> tuple[int, str, str]:
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["check-certificate", str(path)])
    return code, out.getvalue(), err.getvalue()


_TWO_STAR_CERT = certificate_to_json(lo_certificate(two_star_chain()))


def _first_node_with(data: dict, key: str) -> dict:
    stack = [data]
    while key not in stack[-1]:
        node = stack.pop()
        stack.extend(node["children"])
    return stack[-1]


@pytest.mark.parametrize(
    "where, literal",
    [
        (("jump", "step"), lambda v: f"{v}.5"),
        (("jump", "value"), lambda v: f"{v}.9"),
        (("jump", "step"), lambda v: "1e999"),
        (("jump", "step"), lambda v: "true"),
        (("jump", "stabilized_weight"), lambda v: v),
        (("jump", "component"), lambda v: json.dumps(dict.fromkeys(v))),
        (("edge",), lambda v: json.dumps(dict.fromkeys(v))),
        (("r",), lambda v: f'" {v} "'),
        (("seifert", "e0"), lambda v: f"{v}.5"),
        (("seifert", "legs", 0, 0), lambda v: f"{v}.0"),
        (("claims", 0, "expected"), lambda v: "1"),  # the "connected" claim
        (("claims", 1, "got"), lambda v: f'"{v}.0"'),  # the "det" claim
    ],
    ids=[
        "step-float", "value-float", "step-overflow", "step-bool", "weight-int",
        "component-object", "edge-object", "r-padded", "e0-float", "leg-float",
        "claim-int", "claim-decimal",
    ],
)
def test_check_certificate_rejects_values_not_as_written(tmp_path, where, literal):
    # each literal, written from the true value, reads as that value under
    # int(), Fraction() or tuple(), and so did pass the checker
    data = json.loads(json.dumps(_TWO_STAR_CERT))
    target = _first_node_with(data, where[0])
    for key in where[:-1]:
        target = target[key]
    true_value, target[where[-1]] = target[where[-1]], "@@"
    text = json.dumps(data).replace('"@@"', literal(true_value))
    code, _, err = _run_check(tmp_path / "cert.json", text)
    assert code == 1 and err.startswith("error:"), err


_CERT_KEYS = st.sampled_from([
    "graph", "tag", "claims", "children", "edge", "r", "jump", "seifert", "kind",
    "expected", "got", "stabilized_weight", "step", "vertex", "value", "component",
    "e0", "legs",
])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_CERT_KEYS | st.text(max_size=4), inner, max_size=6),
    max_leaves=16,
)


def _paths(value, prefix=()):
    """Every key path into a JSON value."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, (*prefix, key))


_CERT_PATHS = list(_paths(_TWO_STAR_CERT))[1:]


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_check_certificate_fuzz(tmp_path_factory, data):
    # arbitrary JSON, or the two-star certificate with one value replaced
    path = tmp_path_factory.mktemp("fuzz") / "cert.json"
    doc = data.draw(_JSON)
    text = json.dumps(doc)
    code, out, err = _run_check(path, text)
    assert code == 1 and (err.startswith("error:") or "INVALID" in out)
    forged = json.loads(json.dumps(_TWO_STAR_CERT))
    where = data.draw(st.sampled_from(_CERT_PATHS))
    target = forged
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = doc
    code, out, err = _run_check(path, json.dumps(forged))
    if code == 0:  # the replacement decodes to the same certificate
        assert certificate_to_json(certificate_from_json(forged)) == _TWO_STAR_CERT
    else:
        assert code == 1 and (err.startswith("error:") or "INVALID" in out)


# values a mutation writes in place of another: every JSON kind, the claim
# forms true/false and "1"/"0", and ids, tags and kinds of the certificates
_CORPUS_VALUES = [
    True, False, None, 0, 1, -1, 2, "0", "1", "-1", "1/2", "-7/2", "", "c", "xc",
    "m1", "v0", "BaseM1", "Case1", "SemidefLeaf", "det", [], ["xc", "m1"], {},
]


def _mutated(data, rng: random.Random):
    """A copy of ``data`` with one value that is not a list or an object
    replaced by one of ``_CORPUS_VALUES``, or, one time in four, removed."""
    forged = json.loads(json.dumps(data))
    leaves = [p for p in _paths(forged) if not isinstance(_at(forged, p), (dict, list))]
    where = rng.choice(leaves)
    target = _at(forged, where[:-1])
    if rng.randrange(4):
        target[where[-1]] = rng.choice(_CORPUS_VALUES)
    else:
        del target[where[-1]]
    return forged


def test_checker_results_on_a_seeded_corpus(census6, two_star_m2, case2_shallow,
                                            case2_deep):
    # unlike the fuzz above, these inputs do not depend on the source, so
    # the checker's (ok, path, reason) list compares across commits; a
    # certificate that does not decode gives None, as the wording of some
    # decoding errors is the interpreter's
    rng = random.Random(2929)
    pool = acceptance07_pool(census6, [two_star_m2, case2_shallow, case2_deep])
    corpus = [_mutated(_TWO_STAR_CERT, rng) for _ in range(200)]
    corpus += [_mutated(rng.choice(pool), rng) for _ in range(200)]
    results = []
    for data in corpus:
        try:
            cert = certificate_from_json(data)
        except PlumbingError:
            results.append(None)
        else:
            results.append(tuple(check_certificate(cert)))
    checked = [res for res in results if res is not None]
    assert len(checked) > 150 and sum(ok for ok, _, _ in checked) < 30
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest[:12] == "3fb6488efa73", digest


def test_cli_import_skips_dataclasses_and_inspect():
    # the first five cost a cold call about two thirds of its import time,
    # and pathlib pulls in urllib, ipaddress and fnmatch; -S keeps site
    # hooks (.pth files) from adding or hiding modules
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "pathlib", "random")
    code = f"import plumbcalc.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
