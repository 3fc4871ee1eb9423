"""Regenerate ``golden.json``, the known answers the benchmark checks.

    python3 perfbench/make_golden.py

For ``census6``: the record count, the rational count, one verdict bit per
record and the digest of all records.  For the seeded workloads: the
digest of the first pass for seeds 0..SEEDS-1.  The digests pin every verdict
and certificate byte for byte, so regenerate only when an output is meant
to change, and say why.
"""

from __future__ import annotations

import base64
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run

SEEDS = 40


def census_golden() -> dict:
    census, classify = run._modules("census", "classify")
    bits = bytearray()
    digests = []
    rational = 0
    for i, rec in enumerate(census.census(6, -5, jobs=1)):
        report = classify.report_to_json(rec.report)
        if i % 8 == 0:
            bits.append(0)
        if report["rational"]:
            bits[-1] |= 1 << (i % 8)
            rational += 1
        digests.append(run.census_digest(rec, report))
    return {
        "records": len(digests),
        "rational": rational,
        "digest": hashlib.sha256(b"".join(digests)).hexdigest(),
        "rational_bits": base64.b64encode(bytes(bits)).decode(),
    }


def seeded_golden(name: str, seed: int) -> str:
    wl = run.WORKLOADS[name]()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        wl.setup(seed, Path(tmp))
        tally = run.Tally(wl, None)
        run.drive(wl, tally, run.Speed(), None, 1)
        wl.close()
    if not tally.correct:
        raise SystemExit(f"{name} seed {seed}: {tally.failed} items failed their checks")
    return tally.pass_digest


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    golden = {"census6": census_golden()}
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    for name in ("classify-large", "certify", "cli-cold"):
        golden[name] = {}
        for seed in range(SEEDS):
            golden[name][str(seed)] = seeded_golden(name, seed)
            print(name, seed, golden[name][str(seed)], flush=True)
        run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
