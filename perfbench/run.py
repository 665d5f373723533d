"""The repository benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from the root of a checkout.  Workloads (see NOTES.md for why each):

    homeo-large   the ten constructions, four canonical pairs and the
                  preimage identities over one fixed 5-point subject
    verify-all    `powerspace verify` at its defaults, seed as Limits.seed
    build-export  `powerspace build` of L(K(X)) over the 4-point antichain,
                  exported as DOT and as JSON

Each execution runs in a fresh interpreter (worker.py), one after another,
single-threaded, until --seconds have passed; before them, set-up is
timed in SETUP_RUNS extra interpreters that stop after set-up (a few
seconds, not counted in --seconds).  Every output is checked against
expected.json.

--trace 0 reports the end-to-end metrics as medians over executions:
wall_s (the workload after set-up), setup_s (interpreter start, import
and input preparation) and peak_rss_mb.  --trace 1 alternates traced and
untraced executions and reports the per-layer metrics named in
BENCHMARK.json as medians over the traced ones, plus the tracing overhead
against the untraced ones; the spans are written to perfbench/out/.

Times measured inside a worker (wall_s and every per-layer time) are
rescaled by the speed the worker's probe measured while the workload ran
(see SpeedProbe in worker.py), to the machine speed at which the probe
takes REFERENCE_PROBE_S; the unscaled median is printed alongside.
Set-up times are rescaled by the speed probed right after set-up.

A layer metric `<span>_s` is the self time of the spans named <span> or
<span>.*; counts come from the traced executions.  A metric the workload
never reaches reads 0.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("homeo-large", "verify-all", "build-export")
SETUP_RUNS = 24
RUN_LIMIT_S = 170  # a run must end within 180 s


def spawn(args: list[str], timeout: float) -> tuple[float, dict | None]:
    """Start the worker, wait for it, return its spawn time and record."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"worker {' '.join(args)} timed out after {timeout:.0f} s", file=sys.stderr)
        return spawned, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker {' '.join(args)} exited with {proc.returncode}", file=sys.stderr)
        return spawned, None
    return spawned, json.loads(lines[-1])


def with_self_times(spans: list[dict]) -> list[dict]:
    """Each span with its self time: its duration minus its children's."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return [dict(s, self_s=s["end"] - s["start"] - child_time.get(s["id"], 0.0)) for s in spans]


def layer_metrics(record: dict, names: list[str]) -> dict[str, float]:
    """Per-layer values of one traced execution, for the names in
    BENCHMARK.json; times are rescaled to the reference speed."""
    spans = with_self_times(record["spans"])
    values = {**record["counts"], **record["report_s"]}
    for name in names:
        if name.endswith("_s") and name not in values:
            prefix = name[: -len("_s")]
            values[name] = sum(s["self_s"] for s in spans if s["name"] == prefix or s["name"].startswith(prefix + "."))
    return {n: v * record["speed"] if n.endswith("_s") else v for n, v in values.items()}


def execute(workload: str, seed: int, traced: bool, run_id: str, timeout: float, checks: int) -> dict:
    """One execution; a worker that crashes or hangs fails all its checks."""
    spawned, rec = spawn(["--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
                          "--run-id", run_id], timeout)
    if rec is None:
        return {"traced": traced, "checks": checks, "failed": checks}
    rec["setup_s"] = (rec["ready"] - spawned) * rec["setup_speed"]
    rec["traced"] = traced
    if "wall_s" in rec:
        rec["scaled_wall_s"] = rec["wall_s"] * rec["speed"]
    return rec


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Executions one after another while the next one still fits in
    `seconds`; with trace, traced and untraced executions alternate."""
    checks = json.loads((HERE / "expected.json").read_text())[workload]["checks"]
    deadline = time.monotonic() + RUN_LIMIT_S
    section = "per_layer" if trace else "end_to_end"
    setups = []
    for _ in range(SETUP_RUNS):
        spawned, rec = spawn(["--workload", workload, "--seed", str(seed), "--setup-only"],
                             deadline - time.monotonic())
        if rec is None:  # nothing can run: the run fails all its checks
            print(f"{workload}: set-up failed", file=sys.stderr)
            return {"attempted": checks, "failed": checks, "executions": 0, "unscaled_wall_s": 0.0,
                    "metrics": {m["name"]: {"value": 0.0, "unit": m["unit"]} for m in spec[section]}}
        setups.append((rec["ready"] - spawned) * rec["setup_speed"])

    start = time.monotonic()
    records = []
    last = 0.0
    while len(records) < 1 + trace or time.monotonic() + last - start <= seconds:
        if time.monotonic() + last > deadline:
            break
        begun = time.monotonic()
        traced = trace and len(records) % 2 == 0
        records.append(execute(workload, seed, traced, f"{workload}-seed{seed}-{len(records)}",
                               deadline - time.monotonic(), checks))
        last = time.monotonic() - begun

    attempted = sum(r["checks"] for r in records)
    failed = sum(r["failed"] for r in records)
    plain = [r for r in records if not r["traced"] and "wall_s" in r]
    traced = [r for r in records if r["traced"] and "counts" in r]
    if not plain or (trace and not traced):
        failed = attempted  # nothing measured
    setups += [r["setup_s"] for r in records if "setup_s" in r]

    def median_of(key, recs):
        return statistics.median(r[key] for r in recs) if recs else 0.0

    if not trace:
        values = {"wall_s": median_of("scaled_wall_s", plain), "setup_s": statistics.median(setups),
                  "peak_rss_mb": median_of("peak_rss_mb", plain)}
    else:
        names = [m["name"] for m in spec["per_layer"]]
        per_exec = [layer_metrics(r, names) for r in traced]
        values = {n: statistics.median(v.get(n, 0) for v in per_exec) if per_exec else 0.0 for n in names}
        untraced_wall = median_of("scaled_wall_s", plain)
        values["trace.wall_s"] = median_of("scaled_wall_s", traced)
        values["trace.overhead_pct"] = 100 * (values["trace.wall_s"] / untraced_wall - 1) if untraced_wall else 0.0
        if len({json.dumps(r["counts"], sort_keys=True) for r in traced}) > 1:
            print(f"{workload}: counts differ between traced executions", file=sys.stderr)
            failed = attempted
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans = [s for r in traced for s in with_self_times(r["spans"])]
        (out / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans, indent=1) + "\n")
    units = {m["name"]: m["unit"] for m in spec[section]}
    return {
        "attempted": attempted,
        "failed": failed,
        "executions": len(records),
        "unscaled_wall_s": median_of("wall_s", plain),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


def check_layout() -> dict:
    """The benchmark measures the library in this checkout, nothing else."""
    if not (ROOT / "src" / "powerspace" / "__init__.py").is_file():
        sys.exit(f"no powerspace sources under {ROOT / 'src'}: run from a full checkout")
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = check_layout()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        res = measure(workload, args.seed, seconds, bool(args.trace), spec)
        results[workload] = res
        ratio = res["failed"] / res["attempted"]
        shown = "  ".join(f"{n}={m['value']:.6g} {m['unit']}" for n, m in res["metrics"].items())
        print(f"{workload}: executions={res['executions']}  fail_ratio={ratio:g} "
              f"({res['failed']}/{res['attempted']})  "
              f"unscaled_wall_s={res['unscaled_wall_s']:.6g} s  {shown}")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
