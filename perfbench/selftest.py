"""Self-test of the benchmark itself; about two minutes.

    python3 perfbench/selftest.py

For each workload it checks that
  - two traced executions give the same per-layer counts and outputs, and
    fail no check;
  - an untraced execution gives the same outputs as the traced ones;
  - with one expected value tampered, every check of an execution fails,
    so fail_ratio is 1;
and that run.py's last line has the keys correct, attempted, failed and
metrics and, for --trace 0 and --trace 1, exactly the metric names of
BENCHMARK.json.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

TAMPER = {
    "homeo-large": ("sizes", "AK"),
    "verify-all": ("body_sha256",),
    "build-export": ("dot_sha256",),
}


def tampered(expected: dict, workload: str) -> dict:
    *path, key = TAMPER[workload]
    node = expected[workload]["outputs"]
    for step in path:
        node = node[step]
    node[key] = "0" * 64 if isinstance(node[key], str) else node[key] + 1
    return expected


def worker(workload: str, trace: bool, *extra: str) -> dict:
    _, rec = run.spawn(["--workload", workload, "--seed", "0", "--trace", str(int(trace)), *extra], 170)
    if rec is None:
        sys.exit(f"{workload}: the worker failed")
    return rec


def check(ok: bool, what: str, failures: list[str]):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def main() -> int:
    spec = run.check_layout()
    failures: list[str] = []
    expected = json.loads((run.HERE / "expected.json").read_text())
    out = run.HERE / "out"
    out.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        first, second = worker(workload, True), worker(workload, True)
        plain = worker(workload, False)
        check(first["failed"] == second["failed"] == plain["failed"] == 0, f"{workload}: no check fails", failures)
        check(first["counts"] == second["counts"], f"{workload}: counts repeat exactly", failures)
        check(first["outputs"] == second["outputs"] == plain["outputs"], f"{workload}: traced and untraced outputs agree",
              failures)
        bad = out / f"expected-tampered-{workload}.json"
        bad.write_text(json.dumps(tampered(json.loads(json.dumps(expected)), workload)))
        rec = worker(workload, False, "--expected", str(bad))
        check(rec["failed"] == rec["checks"] > 0, f"{workload}: a tampered expected value fails every check", failures)

    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "verify-all", "--seed", "0",
             "--seconds", "0", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        )
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        check(sorted(last) == ["attempted", "correct", "failed", "metrics"] and last["correct"],
              f"run.py --trace {trace}: last line has the result keys and passes", failures)
        check(sorted(last["metrics"]) == sorted(m["name"] for m in spec[section]),
              f"run.py --trace {trace}: metrics are exactly BENCHMARK.json's {section}", failures)
    print("self-test passed" if not failures else f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
