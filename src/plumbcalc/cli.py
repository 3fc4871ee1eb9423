"""Command-line surface.

Exit codes: 0 on success, 1 for input errors (bad files, bad arguments,
failed certificate verification), 2 for internal consistency failures
(these indicate a bug in the calculator, never a property of the input).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .classify import DEFAULT_BAD_SET_CAP, classify, report_to_json
from .census import census
from .errors import InternalCheckError, PlumbingError
from .graph import PlumbingGraph, minimize, parse_graph, serialize_graph
from .lattice import intersection_form
from .laufer import is_rational, min_bad, z_min
from .seifert import (
    brieskorn_seifert,
    foliation_criterion,
    orbifold_euler,
    pinkham_nonrational,
    seifert_to_graph,
    star_to_seifert,
)
from .surgery import (
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    cut_and_fill,
    lo_certificate,
)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_graph(path: str) -> PlumbingGraph:
    return parse_graph(_read_text(path))


def _print_json(data) -> None:
    # written as it is encoded: a long step table is never held as one text
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _bool_str(value) -> str:
    if value is None:
        return "n/a"
    return "yes" if value else "no"


def _cmd_classify(args) -> int:
    g = _load_graph(args.file)
    rep = classify(g, with_bad_set=args.with_badset, bad_set_cap=args.badset_cap)
    if args.with_certificate:
        if rep.rational is False:
            cert = lo_certificate(minimize(g))
            text = json.dumps(certificate_to_json(cert), indent=2)
            _write_text(args.with_certificate, text)
            rep = rep._replace(certificate_path=args.with_certificate)
        else:
            print(
                "note: certificate only exists for non-rational graphs; skipped",
                file=sys.stderr,
            )
    data = report_to_json(rep)
    if args.with_matrix:
        order, rows = intersection_form(g)
        data["intersection_form"] = {
            "order": list(order),
            "rows": [[str(x) for x in row] for row in rows],
        }
    if args.json:
        _print_json(data)
        return 0
    print(f"vertices:           {len(g)}")
    print(f"negative definite:  {_bool_str(rep.negative_definite)} ({rep.definiteness_kind})")
    print(f"det:                {rep.det}")
    print(f"integral homology sphere: {_bool_str(rep.zhs)}")
    print(f"rational:           {_bool_str(rep.rational)}")
    print(f"L-space:            {_bool_str(rep.l_space)}")
    print(f"left-orderable pi1: {_bool_str(rep.lo)}")
    print(f"taut foliation:     {_bool_str(rep.taut_foliation)}")
    if rep.m is not None:
        bound = " (node-set upper bound)" if rep.m_is_upper_bound else ""
        print(f"m (bad vertices):   {rep.m}{bound}, witness {list(rep.bad_set)}")
    if rep.certificate_path:
        print(f"certificate:        {rep.certificate_path}")
    return 0


def _cmd_census(args) -> int:
    from pathlib import Path  # only here: its import pulls in urllib and ipaddress

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "records.jsonl"
    count = 0
    with out_path.open("w", encoding="utf-8") as fh:
        for rec in census(args.max_vertices, args.min_weight, jobs=args.jobs):
            row = {
                "graph": rec.graph_text,
                "vertices": rec.vertex_count,
                "seconds": rec.seconds,
                "report": report_to_json(rec.report),
            }
            fh.write(json.dumps(row) + "\n")
            count += 1
    print(f"wrote {count} records to {out_path}")
    return 0


def _sequence_rows(g: PlumbingGraph):
    cycle, seq = z_min(g)
    rows = []
    for i, step in enumerate(seq.steps):
        rows.append(
            {
                "step": i,
                "vertex": step.vertex,
                "pairing": step.pairing_value,
                "cycle": step.cycle_before,  # keyed in g.vertices order
            }
        )
    return cycle, rows


def _print_sequence_table(g: PlumbingGraph, cycle, rows) -> None:
    vs = list(g.vertices)
    print("step  vertex  pairing  " + " ".join(vs))
    for row in rows:
        cyc = row["cycle"]
        print(
            f"{row['step']:>4}  {row['vertex']:<6}  {row['pairing']:>7}  "
            + " ".join(str(cyc[v]) for v in vs)
        )
    print("final " + " ".join(f"{v}={cycle[v]}" for v in vs))


def _cmd_zmin(args) -> int:
    g = _load_graph(args.file)
    cycle, rows = _sequence_rows(g)
    verdict = is_rational(g)
    if args.json:
        _print_json(
            {
                "z_min": {v: cycle[v] for v in g.vertices},
                "steps": rows,
                "rational": verdict.rational,
                "chi_z_min": str(verdict.chi_zmin),
            }
        )
        return 0
    _print_sequence_table(g, cycle, rows)
    print(f"chi(Z_min): {verdict.chi_zmin}   rational: {_bool_str(verdict.rational)}")
    return 0


def _cmd_sequence(args) -> int:
    g = _load_graph(args.file)
    cycle, rows = _sequence_rows(g)
    if args.json:
        _print_json({"steps": rows, "z_min": {v: cycle[v] for v in g.vertices}})
        return 0
    _print_sequence_table(g, cycle, rows)
    return 0


def _cmd_bad(args) -> int:
    g = _load_graph(args.file)
    m, witness = min_bad(g)
    if args.json:
        _print_json({"m": m, "witness": sorted(witness)})
        return 0
    print(f"m = {m}, witness = {sorted(witness)}")
    return 0


def _cmd_cut(args) -> int:
    g = _load_graph(args.file)
    try:
        a, b = args.edge.split(",")
    except ValueError:
        raise PlumbingError("--edge expects 'v,w'") from None
    cut = cut_and_fill(g, (a.strip(), b.strip()))
    if args.json:
        _print_json(
            {
                "edge": list(cut.edge),
                "r": str(cut.r),
                "filled_w": serialize_graph(cut.filled_w),
                "filled_v": serialize_graph(cut.filled_v),
            }
        )
        return 0
    print(f"r = {cut.r}")
    print("# side filled with r (det = 0):")
    print(serialize_graph(cut.filled_w))
    print("# side filled with 1/r (negative definite):")
    print(serialize_graph(cut.filled_v))
    return 0


def _cmd_certificate(args) -> int:
    g = minimize(_load_graph(args.file))
    cert = lo_certificate(g)
    data = certificate_to_json(cert)
    if args.out:
        _write_text(args.out, json.dumps(data, indent=2))
        print(f"wrote certificate to {args.out}")
    else:
        _print_json(data)
    return 0


def _cmd_check_certificate(args) -> int:
    try:
        data = json.loads(_read_text(args.file))
    except RecursionError:
        raise PlumbingError("certificate JSON nests too deeply") from None
    except ValueError as exc:  # also an integer past the interpreter's digit limit
        raise PlumbingError(f"invalid JSON: {exc}") from None
    cert = certificate_from_json(data)
    res = check_certificate(cert)
    if res.ok:
        print("certificate OK")
        return 0
    print(f"certificate INVALID at {res.path}: {res.reason}")
    return 1


def _cmd_seifert(args) -> int:
    g = _load_graph(args.file)
    sd = star_to_seifert(g)
    e = orbifold_euler(sd)
    pink, witness = pinkham_nonrational(sd)
    verdict = is_rational(g)
    fol = foliation_criterion(sd) if sd.nu == 3 else None
    if args.json:
        _print_json(
            {
                "e0": sd.e0,
                "legs": [list(leg) for leg in sd.legs],
                "e": str(e),
                "pinkham_nonrational": pink,
                "pinkham_witness": witness,
                "foliation_criterion": fol,
                "rational": verdict.rational,
            }
        )
        return 0
    print(f"e0 = {sd.e0}")
    print("legs (alpha, omega):", ", ".join(f"({a},{o})" for a, o in sd.legs))
    print(f"orbifold Euler number e = {e}")
    print(f"Pinkham non-rational: {_bool_str(pink)}"
          + (f" (witness l = {witness})" if witness is not None else ""))
    if fol is not None:
        print(f"foliation criterion:  {_bool_str(fol)}")
    print(f"Laufer rational:      {_bool_str(verdict.rational)}")
    return 0


def _cmd_brieskorn(args) -> int:
    sd = brieskorn_seifert(args.p, args.q, args.r)
    g = seifert_to_graph(sd)
    rep = classify(g)
    if args.json:
        _print_json(
            {
                "e0": sd.e0,
                "legs": [list(leg) for leg in sd.legs],
                "graph": serialize_graph(g),
                "report": report_to_json(rep),
            }
        )
        return 0
    print(f"# Brieskorn ({args.p},{args.q},{args.r}): e0={sd.e0}, "
          + "legs " + ", ".join(f"({a},{o})" for a, o in sd.legs))
    print(serialize_graph(g), end="")
    print(f"# det={rep.det}  rational={_bool_str(rep.rational)}  "
          f"L-space={_bool_str(rep.l_space)}  LO={_bool_str(rep.lo)}  "
          f"foliation={_bool_str(rep.taut_foliation)}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is an input error: exit 1, not 2
        raise PlumbingError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plumbcalc",
        description="Exact calculus for negative-definite plumbing trees: "
        "rationality, L-space status, orderability, taut foliations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full classification report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--with-badset", action="store_true")
    p.add_argument("--badset-cap", type=int, default=DEFAULT_BAD_SET_CAP)
    p.add_argument("--with-certificate", metavar="OUT_JSON")
    p.add_argument("--with-matrix", action="store_true",
                   help="include the intersection form as p/q strings")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("census", help="enumerate and classify small graphs")
    p.add_argument("--max-vertices", type=int, default=6)
    p.add_argument("--min-weight", type=int, default=-5)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("zmin", help="fundamental cycle and rationality")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_zmin)

    p = sub.add_parser("sequence", help="full Laufer computation sequence")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("bad", help="minimal bad set")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bad)

    p = sub.add_parser("cut", help="cut an edge and fill with dual slopes")
    p.add_argument("file")
    p.add_argument("--edge", required=True, metavar="V,W")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser("certificate", help="build a decomposition certificate")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_certificate)

    p = sub.add_parser("check-certificate", help="verify a certificate")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_certificate)

    p = sub.add_parser("seifert", help="Seifert data and star criteria")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_seifert)

    p = sub.add_parser("brieskorn", help="Brieskorn sphere graph + report")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_brieskorn)

    return parser


_main_parser = cache(build_parser)  # one per process, built on first use


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)
        return args.func(args)
    except (PlumbingError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
