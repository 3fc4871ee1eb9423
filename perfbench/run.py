"""plumbcalc benchmark: runs one workload and prints one JSON result line.

    python3 perfbench/run.py --workload census6 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the workload is a closed loop (one client, the next item
after the previous one completes) for ``--seconds`` seconds, or for its
first pass over the items when that takes longer, and the result
holds the end-to-end metrics, with times scaled to a reference CPU speed
(see ``Speed``).  With ``--trace 1`` the run makes one
untraced and one traced pass over the seed's fixed item list and the result
holds the per-layer metrics (span self times and work counts).  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import base64
import compileall
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import deque
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import inputs
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
HOOK = HERE / "clihook.py"

SETUP_REPEATS = 5
PROBE_REPEATS = 5
KERNEL_REPEATS = 20  # about 3 ms; fewer let one sample in a set-up probe sway its scale
WATCHDOG_S = 175  # every run must end within 180 s
TIME_EPS = 1e-6

CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}

SPEED_INTERVAL_S = 0.025
# The speed kernel's time in the fast state of the host the bounds were set
# on (Xeon KVM guest, 2 vCPUs, Python 3.11.7); it only fixes the units.
SPEED_REFERENCE_S = 0.00015

# ROADMAP baseline, microseconds per census-6 call (single runs, 2 CPUs).
ROADMAP_CENSUS6_US = {
    "laufer.is_rational": 324,
    "lattice.canonical_cycle": 141,
    "lattice.definiteness": 36,
    "lattice.determinant": 24,
}


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()[:8]


def census_digest(rec, report: dict) -> bytes:
    """Digest of one census row without its ``seconds`` timing field."""
    return digest(json.dumps([rec.graph_text, rec.vertex_count, report]).encode())


def _speed_kernel():
    """Fixed pure-Python work of the program's kind: dict updates, int and
    Fraction arithmetic."""
    acc: dict[int, int] = {}
    x = Fraction(0)
    for i in range(1, 50):
        acc[i & 15] = acc.get(i & 15, 0) + i * i % 7
        x += Fraction(i % 7 - 3, i % 5 + 1)
    return x, acc


class Speed:
    """How fast the host runs right now, relative to the reference.

    The host's vCPUs step between speeds about 1.4x apart every 10-30 s,
    because of load outside this machine, and a 25 s run sees a different
    mix of them each time.  So the kernel is timed at most every
    SPEED_INTERVAL_S of the loop, and a time multiplied by ``scale()`` is
    the time the same work takes at the reference speed.
    """

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=5)
        self.samples: list[float] = []
        self.due = 0.0

    def scale(self) -> float:
        if perf_counter() >= self.due:
            t0 = perf_counter()
            _speed_kernel()
            took = perf_counter() - t0
            self.recent.append(took)
            self.samples.append(took)
            self.due = t0 + SPEED_INTERVAL_S
        return SPEED_REFERENCE_S / statistics.median(self.recent)


class Outcome(NamedTuple):
    """One item: program latency, verification time, output digest."""

    latency: float
    check: float | None
    digest: bytes
    ok: bool


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A fixed, seeded list of ``pass_len`` items, run in order and again
    from the start while time remains.  ``tracer`` is set for the traced
    pass; ``begin``/``end`` bracket the program's part of an item."""

    name = ""
    tracer: Tracer | None = None
    whole_passes = False  # stop a timed run only between passes

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def start_pass(self) -> None:
        pass

    def end_pass(self) -> bool:
        """Known-answer checks on a whole pass; False marks the run wrong."""
        return True

    def item(self, i: int) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def begin(self) -> float:
        if self.tracer is not None:
            self._sid = self.tracer.open(self.tracer.name_id("item"))
        return perf_counter()

    def end(self) -> float:
        t = perf_counter()
        if self.tracer is not None:
            self.tracer.close(self._sid)
        return t


def _modules(*names: str) -> list:
    """plumbcalc submodules by name (the package's ``census`` and
    ``classify`` attributes are functions, not the modules)."""
    import plumbcalc
    import plumbcalc.cli  # noqa: F401

    if not Path(plumbcalc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: plumbcalc imported from {plumbcalc.__file__}, not {SRC}")
    return [sys.modules[f"plumbcalc.{n}"] for n in names]


class Census6(Workload):
    """``census(6, -5, jobs=1)`` streamed to JSONL as ``plumbcalc census``
    writes it; an item is one record.  The input is fixed: no seed use.

    The census enumerates each vertex count in one batch, so a pass cut
    short would pay for enumerating graphs it never uses; timed runs
    therefore end between passes."""

    name = "census6"
    whole_passes = True

    def setup(self, seed, workdir):
        self.census_mod, self.classify_mod = _modules("census", "classify")
        gold = load_golden()["census6"]
        self.pass_len = gold["records"]
        self.rational_total = gold["rational"]
        self.bits = base64.b64decode(gold["rational_bits"])
        self.path = workdir / "records.jsonl"
        self.fh = None

    def start_pass(self):
        self.close()
        self.fh = self.path.open("w", encoding="utf-8")
        self.stream = self.census_mod.census(6, -5, jobs=1)
        self.rational_seen = 0

    def item(self, i):
        t0 = self.begin()
        rec = next(self.stream)
        report = self.classify_mod.report_to_json(rec.report)
        row = {
            "graph": rec.graph_text,
            "vertices": rec.vertex_count,
            "seconds": rec.seconds,
            "report": report,
        }
        self.fh.write(json.dumps(row) + "\n")
        t1 = self.end()
        rational = report["rational"]
        expected = bool(self.bits[i >> 3] >> (i & 7) & 1)
        self.rational_seen += rational is True
        ok = (
            rational is expected
            and report["l_space"] is rational
            and report["lo"] is (not rational)
            and report["taut_foliation"] is (not rational)
            and report["negative_definite"] is True
        )
        dig = census_digest(rec, report)
        return Outcome(t1 - t0, perf_counter() - t1, dig, ok)

    def end_pass(self):
        exhausted = next(self.stream, None) is None
        return exhausted and self.rational_seen == self.rational_total

    def close(self):
        if self.fh is not None:
            self.fh.close()
            self.fh = None


class ClassifyLarge(Workload):
    """Large seeded trees through the in-process ``classify --json``."""

    name = "classify-large"

    def setup(self, seed, workdir):
        (self.cli,) = _modules("cli")
        self.trees = inputs.classify_large_inputs(seed)
        self.paths = []
        for i, tree in enumerate(self.trees):
            path = workdir / f"g{i}.graph"
            path.write_text(tree.text(), encoding="utf-8")
            self.paths.append(str(path))
        self.pass_len = len(self.trees)

    def item(self, i):
        buf = io.StringIO()
        t0 = self.begin()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["classify", self.paths[i], "--json"])
        t1 = self.end()
        out = buf.getvalue()
        data = json.loads(out)
        nd, det = inputs.dp_check(self.trees[i])
        rational, _ = inputs.laufer_oracle(self.trees[i])
        ok = (
            code == 0
            and data["negative_definite"] is nd is True
            and data["det"] == str(det)
            and data["zhs"] is (det == 1)
            and data["rational"] is rational
            and data["l_space"] is rational
            and data["lo"] is (not rational)
            and data["taut_foliation"] is (not rational)
        )
        return Outcome(t1 - t0, perf_counter() - t1, digest(out.encode()), ok)


class Certify(Workload):
    """Minimal non-rational trees: build, serialize, parse and check a
    certificate in-process."""

    name = "certify"

    def setup(self, seed, workdir):
        self.graph_mod, self.surgery = _modules("graph", "surgery")
        self.trees = [(t.weight_map(), t.edge_names()) for t in inputs.certify_inputs(seed)]
        self.pass_len = len(self.trees)

    def item(self, i):
        surgery = self.surgery
        weights, edges = self.trees[i]
        t0 = self.begin()
        g = self.graph_mod.PlumbingGraph(weights, edges)
        text = json.dumps(surgery.certificate_to_json(surgery.lo_certificate(g)))
        t_built = perf_counter()
        result = surgery.check_certificate(surgery.certificate_from_json(json.loads(text)))
        t1 = self.end()
        return Outcome(t1 - t0, t1 - t_built, digest(text.encode()), bool(result.ok))


class CliCold(Workload):
    """One fresh ``python -m plumbcalc.cli`` per item: ``classify --json``,
    ``certificate --out`` and ``check-certificate`` of that output, in turn,
    over small one-core trees."""

    name = "cli-cold"
    KINDS = ("classify", "certificate", "check")

    def setup(self, seed, workdir):
        _modules()
        self.workdir = workdir
        self.trees = inputs.cli_cold_inputs(seed)
        for k, tree in enumerate(self.trees):
            (workdir / f"g{k}.graph").write_text(tree.text(), encoding="utf-8")
        self.pass_len = 3 * len(self.trees)
        self.peak_rss_kb = 0
        self.out = tempfile.TemporaryFile(dir=workdir)
        self.err = tempfile.TemporaryFile(dir=workdir)

    def close(self):
        self.out.close()
        self.err.close()

    def _run(self, args: list[str]) -> tuple[int, bytes, float]:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "plumbcalc.cli", *args]
        else:
            spans = self.workdir / "child-spans.tsv"
            cmd = [sys.executable, str(HOOK), str(spans), *args]
        for fh in (self.out, self.err):
            fh.seek(0)
            fh.truncate()
        t0 = self.begin()
        proc = subprocess.Popen(cmd, stdout=self.out, stderr=self.err, env=CHILD_ENV)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        t1 = self.end()
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            self.err.seek(0)
            print(self.err.read().decode(errors="replace")[-2000:], file=sys.stderr)
        if self.tracer is not None and spans.exists():
            self.tracer.merge(Tracer.load(spans), parent=self._sid)
            spans.unlink()
        self.out.seek(0)
        return proc.returncode, self.out.read(), t1 - t0

    def item(self, i):
        k, kind = divmod(i, 3)
        graph = str(self.workdir / f"g{k}.graph")
        cert = self.workdir / f"c{k}.json"
        if self.KINDS[kind] == "classify":
            code, out, latency = self._run(["classify", graph, "--json"])
            data = json.loads(out)
            ok = data["rational"] is False and data["lo"] is True
            return Outcome(latency, None, digest(out), code == 0 and ok)
        if self.KINDS[kind] == "certificate":
            cert.unlink(missing_ok=True)
            code, out, latency = self._run(["certificate", graph, "--out", str(cert)])
            ok = out == f"wrote certificate to {cert}\n".encode()
            return Outcome(latency, None, digest(cert.read_bytes()), code == 0 and ok)
        code, out, latency = self._run(["check-certificate", str(cert)])
        return Outcome(latency, latency, digest(out), code == 0 and out == b"certificate OK\n")


WORKLOADS = {w.name: w for w in (Census6, ClassifyLarge, Certify, CliCold)}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Driving a workload
# ---------------------------------------------------------------------------


class Tally:
    """Outcomes of a run, checked against the first pass and the golden
    per-seed digest of that pass."""

    def __init__(self, wl: Workload, golden: str | None):
        self.golden = golden
        self.first: list[bytes | None] = [None] * wl.pass_len
        self.first_ok = [False] * wl.pass_len
        self.latencies: list[float] = []
        self.checks: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.passes_done = 0
        self.pass_digest: str | None = None
        self.wrong_pass = False

    def record(self, p: int, i: int, out: Outcome | None, scale: float) -> None:
        self.attempted += 1
        ok = out is not None and out.ok
        if out is not None:
            self.latencies.append(out.latency * scale)
            if out.check is not None:
                self.checks.append(out.check * scale)
            if p == 0:
                self.first[i] = out.digest
            elif out.digest != self.first[i]:
                ok = False
        if p == 0:
            self.first_ok[i] = ok
        if not ok:
            self.failed += 1

    def finish_pass(self, p: int, whole_ok: bool) -> None:
        self.passes_done += 1
        if not whole_ok:
            self.wrong_pass = True
        if p == 0 and all(d is not None for d in self.first):
            self.pass_digest = hashlib.sha256(b"".join(self.first)).hexdigest()
            if self.golden is not None and self.pass_digest != self.golden:
                # The digest cannot say which item changed: count them all.
                self.failed += sum(self.first_ok)
                self.first_ok = [False] * len(self.first_ok)
                self.wrong_pass = True

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.wrong_pass and self.pass_digest is not None


def drive(
    wl: Workload, tally: Tally, speed: Speed, deadline: float | None, passes: int | None
) -> float:
    """Closed loop over the item list: until ``deadline`` or for ``passes``
    whole passes.  The first pass always runs whole, so that its digest is
    always compared with golden.json.  After it, a ``whole_passes``
    workload starts a pass only when a pass as long as the last one still
    ends before the deadline; the others stop at the deadline.  Returns the
    loop's time at the reference speed, without the speed samples."""
    scaled = 0.0
    p = 0
    last_pass = 0.0
    while passes is None or p < passes:
        pass_start = perf_counter()
        if wl.whole_passes and deadline is not None and pass_start + last_pass > deadline:
            return scaled
        wl.start_pass()
        for i in range(wl.pass_len):
            scale = speed.scale()
            t0 = perf_counter()
            if p and deadline is not None and t0 >= deadline and not wl.whole_passes:
                return scaled
            try:
                out = wl.item(i)
            except Exception as exc:  # a failing item is counted, not fatal
                print(f"item {p}:{i} failed: {exc!r}", file=sys.stderr)
                out = None
            tally.record(p, i, out, scale)
            scaled += (perf_counter() - t0) * scale
        tally.finish_pass(p, wl.end_pass())
        last_pass = perf_counter() - pass_start
        p += 1
    return scaled


def golden_seeds() -> str:
    seeds = sorted(int(s) for s in load_golden()["certify"])
    return f"{seeds[0]}-{seeds[-1]}"


def golden_for(name: str, seed: int) -> str | None:
    gold = load_golden().get(name, {})
    return gold["digest"] if name == "census6" else gold.get(str(seed))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(len(xs) * q / 100) - 1)]


def child_wall(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=CHILD_ENV, capture_output=True, timeout=60)
    return perf_counter() - t0, proc


def kernel_seconds() -> float:
    """Median of KERNEL_REPEATS speed-kernel timings, taken now."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = perf_counter()
        _speed_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def probe_setup(wl: Workload, seed: int, workdir: Path) -> float:
    """Set-up time of this fresh interpreter, at the reference speed: the
    import of plumbcalc and the building of the inputs, scaled by speed
    samples taken just before and just after."""
    before = kernel_seconds()
    t0 = perf_counter()
    wl.setup(seed, workdir)
    took = perf_counter() - t0
    after = kernel_seconds()
    return took * SPEED_REFERENCE_S * 2 / (before + after)


def setup_seconds(name: str, seed: int) -> float:
    """Median of the set-up times that fresh interpreters report."""
    times = []
    for _ in range(SETUP_REPEATS):
        _, proc = child_wall(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)]
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-500:]}")
        times.append(float(proc.stdout.decode().split()[-1]))
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(wl: Workload, seed: int, seconds: float) -> tuple[dict, Tally, list[str]]:
    tally = Tally(wl, golden_for(wl.name, seed))
    speed = Speed()
    t0 = perf_counter()
    elapsed = drive(wl, tally, speed, t0 + seconds, None)
    wall = perf_counter() - t0
    if isinstance(wl, CliCold):
        peak_kb = wl.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wl.close()
    correct_items = tally.attempted - tally.failed
    lat = tally.latencies
    p90 = percentile(lat, 90)
    metrics = {
        "items_per_s": metric(correct_items / elapsed, "1/s"),
        "item_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "item_p90_ms": metric(p90 * 1e3, "ms"),
        "check_p50_ms": metric(statistics.median(tally.checks) * 1e3, "ms"),
        "setup_s": metric(setup_seconds(wl.name, seed), "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }
    beyond = sum(1 for x in lat if x > p90)
    kernel = statistics.median(speed.samples)
    notes = [
        f"timed {wall:.3f} s wall, {elapsed:.3f} s at reference speed; {tally.attempted} "
        f"items, {tally.passes_done} whole passes of {wl.pass_len}",
        f"speed kernel median {kernel * 1e3:.4f} ms over {len(speed.samples)} samples, "
        f"reference {SPEED_REFERENCE_S * 1e3:.4f} ms: times below are scaled by about "
        f"{SPEED_REFERENCE_S / kernel:.3f}",
        f"item_p90_ms over {len(lat)} samples, {beyond} beyond it; "
        f"check_p50_ms over {len(tally.checks)} samples",
        f"failed_ratio {tally.failed / max(1, tally.attempted):.6g} (1)",
    ]
    return metrics, tally, notes


def import_seconds() -> float:
    """Median cumulative ``-X importtime`` of the top-level plumbcalc imports."""
    totals = []
    for _ in range(PROBE_REPEATS):
        _, proc = child_wall([sys.executable, "-X", "importtime", "-c", "import plumbcalc.cli"])
        us = 0
        for line in proc.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].startswith(" plumbcalc"):
                us += int(parts[1])
        if not us:
            raise RuntimeError("no plumbcalc entries in -X importtime output")
        totals.append(us / 1e6)
    return statistics.median(totals)


def interpreter_floor_ms() -> float:
    return statistics.median(
        child_wall([sys.executable, "-c", "pass"])[0] * 1e3 for _ in range(PROBE_REPEATS)
    )


def traced_run(wl: Workload, seed: int, name: str) -> tuple[dict, Tally, list[str]]:
    tally = Tally(wl, golden_for(wl.name, seed))
    speed = Speed()
    untraced_s = drive(wl, tally, speed, None, 1)
    reference = list(tally.first)

    tracer = Tracer()
    tracer.install()
    wl.tracer = tracer
    traced = Tally(wl, None)
    try:
        traced_s = drive(wl, traced, speed, None, 1)
    finally:
        tracer.uninstall()
        wl.tracer = None
        wl.close()
    if traced.first != reference:
        traced.wrong_pass = True  # tracing changed an output
    tally.failed += traced.failed
    tally.attempted += traced.attempted
    tally.wrong_pass |= traced.wrong_pass

    own = tracer.self_times()
    item_id = tracer.name_id("item")
    self_s = [0.0] * len(tracer.names)
    item_wall = 0.0
    for sid, nid in enumerate(tracer.name):
        self_s[nid] += own[sid]
        if nid == item_id:
            item_wall += tracer.end[sid] - tracer.start[sid]
    layer_self = sum(s for nid, s in enumerate(self_s) if nid != item_id)
    if min(own, default=0.0) < -TIME_EPS or layer_self > item_wall + TIME_EPS:
        tally.wrong_pass = True  # spans overlap: the self times are not valid

    metrics = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            nid = tracer.name_id(f"{layer}.{fn}")
            calls = "built" if fn == "PlumbingGraph" else "calls"
            metrics[f"{layer}.{fn}.{calls}"] = metric(tracer.calls[nid], "count")
            metrics[f"{layer}.{fn}.self_s"] = metric(self_s[nid], "s")
    c = tracer.counters
    tried = c["laufer.min_bad.subsets_tried"]
    metrics.update(
        {
            "laufer.steps": metric(c["laufer.steps"], "count"),
            "laufer.stabilize.decrements": metric(c["laufer.stabilize.decrements"], "count"),
            "laufer.min_bad.subsets_tried": metric(tried, "count"),
            "laufer.min_bad.hit_ratio": metric(
                c["laufer.min_bad.hits"] / tried if tried else 0.0, "ratio"
            ),
            "surgery.cert.nodes": metric(c["surgery.cert.nodes"], "count"),
            "surgery.cert.max_depth": metric(c["surgery.cert.max_depth"], "count"),
            "surgery.cert.max_graph_vertices": metric(
                c["surgery.cert.max_graph_vertices"], "count"
            ),
            "census.census_graphs.yielded": metric(c["census.census_graphs.yielded"], "count"),
            "cli.import_s": metric(import_seconds(), "s"),
            "cli.interpreter_floor_ms": metric(interpreter_floor_ms(), "ms"),
            "trace.overhead_ratio": metric(traced_s / untraced_s, "ratio"),
        }
    )

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.tsv"
    tracer.dump(spans_path)
    notes = [
        f"at reference speed: untraced pass {untraced_s:.3f} s, traced pass {traced_s:.3f} s, "
        f"{len(tracer.name)} spans written to {spans_path.relative_to(ROOT)}",
        f"layer self time {layer_self:.3f} s of {item_wall:.3f} s item wall time "
        f"({layer_self / item_wall:.3f})",
    ]
    if name == "census6":
        notes.append("per call, inclusive of callees (traced)   vs ROADMAP baseline")
        for qual, base in ROADMAP_CENSUS6_US.items():
            nid = tracer.name_id(qual)
            incl = sum(
                tracer.end[s] - tracer.start[s] for s, n in enumerate(tracer.name) if n == nid
            )
            calls = tracer.calls[nid] or 1
            notes.append(
                f"  {qual:<26} {incl / calls * 1e6:8.1f} us  self "
                f"{self_s[nid] / calls * 1e6:7.1f} us   baseline {base} us"
            )
    return metrics, tally, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _watchdog(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "plumbcalc" / "__init__.py").is_file():
        print(f"error: no plumbcalc sources under {SRC}", file=sys.stderr)
        return 2
    if not args.setup_probe:
        # An installed package has its bytecode; so do these runs, whatever
        # PYTHONDONTWRITEBYTECODE says.  Only stale or missing files are written.
        for path, depth in ((SRC / "plumbcalc", 10), (HERE, 0)):
            if not compileall.compile_dir(path, maxlevels=depth, quiet=1):
                print(f"error: cannot compile {path}", file=sys.stderr)
                return 2
    # One CPU for the run and its children, so that the speed samples
    # describe the CPU the items run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.setup_probe:
            took = probe_setup(wl, args.seed, Path(tmp))
            wl.close()
            print(repr(took))
            return 0
        wl.setup(args.seed, Path(tmp))
        signal.signal(signal.SIGALRM, _watchdog)
        signal.alarm(WATCHDOG_S)
        if args.trace:
            metrics, tally, notes = traced_run(wl, args.seed, args.workload)
        else:
            metrics, tally, notes = timed_run(wl, args.seed, args.seconds)
        signal.alarm(0)

    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"Python {platform.python_version()}, nproc {os.cpu_count()}"
    )
    print(
        f"pass digest {tally.pass_digest or 'not complete'}; golden "
        + (
            f"none for this seed (golden.json holds seeds {golden_seeds()})"
            if tally.golden is None
            else "match" if tally.pass_digest == tally.golden
            else "MISMATCH"
        )
    )
    for note in notes:
        print(note)
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
