import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbcalc.cli import main
from plumbcalc.graph import parse_graph
from plumbcalc.laufer import zmin_multiplicities
from plumbcalc.surgery import certificate_from_json, certificate_to_json, lo_certificate

from conftest import two_star_chain
from oracles import reference_zmin_lifo

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
