"""Record the benchmark's expected outputs into perfbench/expected.json.

    python3 perfbench/record.py

verify-all's goldens come from the command-line interface itself
(`powerspace verify --jobs 1 --seed S --json FILE`), not from the
benchmark's worker, so the worker is checked against the command users
run.  They are recorded for seed 0 and for one held-out
seed; the two must agree, because the report body and the stdout lines of
a passing run do not depend on the seed.  The stdout lines of both runs are
kept next to expected.json for diffing.

homeo-large and build-export are recorded from one execution and asserted
against the sizes and counts that do not need a digest to be known.

Run this only when a change is meant to alter a workload's outputs, and
say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import worker
from powerspace.cli import main as cli_main

HELD_OUT_SEED = 7919


def record_verify(seed: int) -> tuple[dict, str]:
    with tempfile.TemporaryDirectory(dir=worker.HERE) as tmp:
        report_path = Path(tmp) / "report.json"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(["verify", "--jobs", "1", "--seed", str(seed), "--json", str(report_path)])
        report = json.loads(report_path.read_text())
    if code != 0:
        sys.exit(f"powerspace verify --seed {seed} exited with {code}")
    del report["timings"]
    body = json.dumps(report, indent=2, sort_keys=True) + "\n"
    out = {
        "subjects": len(report["subjects"]),
        "checks": len(report["checks"]),
        "failed": report["failed"],
        "body_sha256": worker.sha256(body),
        "stdout_sha256": worker.sha256(stdout.getvalue()),
    }
    return out, stdout.getvalue()


def record_direct(workload: str) -> dict:
    prepare, run, outputs, _ = worker.WORKLOADS[workload]
    out, checks = outputs(run(prepare(0), worker.Tracer("record", False)))
    return {"checks": checks, "outputs": out}


def main() -> int:
    expected = {}

    homeo = record_direct("homeo-large")
    sizes = homeo["outputs"]["sizes"]
    assert all(sizes[name] == 887 for name in worker.TOWER[3:]), sizes
    assert all(homeo["outputs"]["verify_pair"].values()) and homeo["outputs"]["preimage_identities"]
    expected["homeo-large"] = homeo

    seed0, stdout0 = record_verify(0)
    held, stdout_held = record_verify(HELD_OUT_SEED)
    assert (seed0["subjects"], seed0["checks"], seed0["failed"]) == (25, 824, 0), seed0
    if held != seed0:
        sys.exit(f"verify-all outputs depend on the seed: {seed0} vs {held}")
    expected["verify-all"] = {
        "checks": seed0["checks"],
        "outputs": seed0,
        "held_out": {"seed": HELD_OUT_SEED, **held},
    }
    golden = worker.HERE / "expected"
    golden.mkdir(exist_ok=True)
    (golden / "verify-all.seed0.stdout").write_text(stdout0)
    (golden / f"verify-all.seed{HELD_OUT_SEED}.stdout").write_text(stdout_held)

    build = record_direct("build-export")
    counts = {k: build["outputs"][k] for k in ("points", "order_pairs", "hasse_edges")}
    assert counts == {"points": 3938, "order_pairs": 1991618, "hasse_edges": 17144}, counts
    expected["build-export"] = build

    (worker.HERE / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(json.dumps(expected, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
