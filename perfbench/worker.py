"""One execution of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload homeo-large --seed 0 --trace 0

run.py starts this script once per execution, so every execution pays
interpreter start and `import powerspace` like a user's command does, and
no module-level cache of the library carries over from one execution to
the next.  The script prints one JSON line: when set-up ended (on the
system-wide monotonic clock, so the parent can take set-up time from its
own spawn time), the untraced wall time of the workload, peak RSS, the
outputs it checked against expected.json, and, when traced, the spans and
per-layer counts.

Spans are recorded here, around calls into the library's public
functions; the library itself carries no tracing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import powerspace  # noqa: E402  (path set above)

if Path(powerspace.__file__).resolve().parent != ROOT / "src" / "powerspace":
    sys.exit(f"powerspace imported from {powerspace.__file__}, not from this checkout")

from dataclasses import replace  # noqa: E402

from powerspace import FiniteSpace, Powers, powerspaces, suites  # noqa: E402
from powerspace.canonical import PAIR_BUILDERS, check_preimage_identities, verify_pair  # noqa: E402
from powerspace.cli import evaluate_expression  # noqa: E402
from powerspace.config import DEFAULT_LIMITS  # noqa: E402
from powerspace.core import space_from_json  # noqa: E402
from powerspace.powerspaces import construction_to_json, to_dot  # noqa: E402
from powerspace.suites import run_suite  # noqa: E402

# `A`, `K`, `O` first, so each iterated construction's span holds its own
# build only and not the lazy build of the level below it.
TOWER = ("A", "K", "O", "AK", "KA", "OO", "AO", "OK", "KO", "OA")

# FiniteSpace(("p0",...,"p4"), up=(1,2,4,8,17)): the 4-point antichain with
# p4 below p0, suite label n5-070db45383de.
HOMEO_SUBJECT_UP = (1, 2, 4, 8, 17)

# On a shared virtual machine (2 vCPUs, Intel Xeon) a vCPU's speed drifts
# by 10-20% over tens of seconds as other tenants load the physical cores,
# and no run length averages that away.  A fixed probe of big-int and dict
# operations, the library's own mix, runs from a timer signal every
# PROBE_INTERVAL_S while a workload runs (and SETUP_PROBES times right
# after set-up, for set-up time); times are then rescaled to the speed at
# which the probe takes REFERENCE_PROBE_S on average, about its time on
# that machine when it is fast.  The average leaves out the slowest
# PROBE_TRIM of the probes, so that a probe the scheduler cuts into does
# not move the factor; a plain median tracked the workloads less well.
# The probe allocates no container objects, so it never triggers the
# garbage collector inside the workload, and an untimed first pass keeps
# the workload's cache footprint out of the probe's time.
PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_S = 0.0007
SETUP_PROBES = 20
PROBE_TRIM = 0.1
_PROBE_MASKS = tuple((1 << (i * 37 % 3000)) | (1 << (i * 91 % 3000)) | (1 << 2999) for i in range(64))
_PROBE_INDEX = {m: i for i, m in enumerate(_PROBE_MASKS)}

BUILD_INPUT = '{"points": ["a0", "a1", "a2", "a3"], "order": []}'
BUILD_EXPR = "L(K(X))"


class Tracer:
    """Spans kept in memory: name, start, end, parent span, run id."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class SpeedProbe:
    """Time the probe from SIGALRM while the block runs, or call `probe`
    directly; `speed` is the factor that rescales times taken meanwhile
    to the reference speed."""

    def __init__(self):
        self.times: list[float] = []

    @staticmethod
    def _pass() -> int:
        acc = 0
        prev = _PROBE_MASKS[-1]
        for m in _PROBE_MASKS:
            acc += _PROBE_INDEX.get(m, 0) + ((m | prev) & ~(m & prev)).bit_count()
            prev = m
        return acc

    def probe(self, signum=None, frame=None):
        self._pass()  # untimed: brings the probe's data back into cache
        t0 = time.perf_counter()
        for _ in range(12):
            self._pass()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        if not self.times:  # shorter than one interval: probe once now
            self.probe()
        kept = sorted(self.times)[: max(1, round(len(self.times) * (1 - PROBE_TRIM)))]
        return REFERENCE_PROBE_S / statistics.mean(kept)


@contextlib.contextmanager
def patched(module, name: str, wrap):
    """Replace module.<name> by wrap(original) while the block runs.  The
    library resolves these module globals at call time, so its own calls
    go through the wrapper; only traced executions patch anything."""
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def collecting(built: list):
    """Wrapper for powerspaces._finish, through which every construction is
    made: keep each constructed space, to be counted after the clock stops."""
    def wrap(finish):
        def finish_and_keep(*args, **kwargs):
            cs = finish(*args, **kwargs)
            built.append(cs.space)
            return cs
        return finish_and_keep
    return wrap


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def space_counts(spaces) -> dict:
    """Points, order pairs (reflexive ones included) and Hasse edges."""
    return {
        "core.points": sum(s.n for s in spaces),
        "core.order_pairs": sum(m.bit_count() for s in spaces for m in s.up),
        "core.hasse_edges": sum(len(s.covers()) for s in spaces),
    }


# ---------------------------------------------------------------------------
# workloads: prepare(seed) is set-up, run(inputs, tracer) is the timed part,
# outputs(result) and counts(result, tracer, built) run after the clock
# stops, built being every constructed space of the execution; counts
# returns exact counts and, for verify-all, times the report took.


def homeo_prepare(seed: int):
    # the seed is not used: this workload has one fixed subject
    names = tuple(f"p{i}" for i in range(len(HOMEO_SUBJECT_UP)))
    return FiniteSpace(names, HOMEO_SUBJECT_UP), DEFAULT_LIMITS


def homeo_run(inputs, tr: Tracer):
    space, limits = inputs
    pw = Powers(space, limits)
    for name in TOWER:
        with tr.span(f"powerspaces.build.{name}"):
            getattr(pw, name)
    pairs = {}
    for name, builder in PAIR_BUILDERS.items():
        with tr.span(f"canonical.pair_tables.{name.replace('/', '-')}"):
            pairs[name] = builder(pw, limits)
    verdicts = {}
    for name, pair in pairs.items():
        with tr.span(f"canonical.verify_pair.{name.replace('/', '-')}"):
            verdicts[name] = verify_pair(pair)
    with tr.span("canonical.preimage_identities"):
        preimages = check_preimage_identities(pw, limits)
    return pw, verdicts, preimages


def homeo_outputs(result) -> tuple[dict, int]:
    pw, verdicts, preimages = result
    out = {
        "verify_pair": {name: v.holds for name, v in verdicts.items()},
        "preimage_identities": preimages.holds,
        "preimage_instances": preimages.info.get("instances"),
        "sizes": {name: getattr(pw, name).space.n for name in TOWER},
    }
    return out, len(verdicts) + 1 + len(TOWER)


def homeo_counts(result, tr: Tracer, built: list) -> tuple[dict, dict]:
    _, _, preimages = result
    counts = space_counts(built)
    counts["canonical.preimage_instances"] = preimages.info.get("instances")
    return counts, {}


def verify_prepare(seed: int):
    return replace(DEFAULT_LIMITS, seed=seed)


def verify_run(limits, tr: Tracer):
    """`powerspace verify` with its defaults: run_suite("all"), jobs=1.
    Traced, each per-suite call run_suite("all") makes gets its own span,
    and its part of the report is kept for the report's timings."""
    parts = {}

    def per_suite(original):
        def run_one(suite, *args, **kwargs):
            if suite == "all":
                return original(suite, *args, **kwargs)
            with tr.span(f"suites.{suite}"):
                parts[suite] = original(suite, *args, **kwargs)
            return parts[suite]
        return run_one

    with patched(suites, "run_suite", per_suite) if tr.enabled else contextlib.nullcontext():
        report = run_suite("all", jobs=1, limits=limits)
    lines = report.lines()
    body = json.dumps(report.to_json(include_timings=False), indent=2, sort_keys=True) + "\n"
    return report, parts, lines, body


def verify_outputs(result) -> tuple[dict, int]:
    report, _, lines, body = result
    out = {
        "subjects": len(report.subjects),
        "checks": len(report.records),
        "failed": report.failed,
        "body_sha256": sha256(body),
        "stdout_sha256": sha256("\n".join(lines) + "\n"),
    }
    return out, len(report.records)


def _millis(part, name=None) -> float:
    return sum(r.millis for r in part.records if name is None or r.name == name) / 1000


def verify_counts(result, tr: Tracer, built: list) -> tuple[dict, dict]:
    report, parts, _, _ = result
    counts = space_counts(built)
    counts["suites.checks"] = len(report.records)
    counts["suites.subjects"] = len(report.subjects)
    # check-family sums from the report's own timings section
    return counts, {
        "suites.homeo.naturality_s": _millis(parts["homeo"], "naturality"),
        "suites.homeo.cardinality_crosscheck_s": _millis(parts["homeo"], "cardinality_crosscheck"),
        "suites.wilker.decompose_all_triples_s": _millis(parts["wilker"], "decompose_all_triples"),
        "suites.consonance.checkers_s": _millis(parts["consonance"]),
    }


def build_prepare(seed: int):
    # the seed is not used: this workload has one fixed input file
    return BUILD_INPUT


def build_run(text, tr: Tracer):
    """`powerspace build` over the 4-point antichain, both export formats."""
    space = space_from_json(json.loads(text))
    with tr.span("powerspaces.build.LK"):
        built = evaluate_expression(space, BUILD_EXPR)
    with tr.span("powerspaces.to_dot"):
        dot = to_dot(built)
    with tr.span("powerspaces.to_json"):
        doc = construction_to_json(built)
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return built, dot, doc, payload


def build_outputs(result) -> tuple[dict, int]:
    built, dot, doc, payload = result
    out = {
        "points": built.space.n,
        "order_pairs": sum(m.bit_count() for m in built.space.up),
        "hasse_edges": len(doc["order"]),
        "dot_sha256": sha256(dot),
        "json_sha256": sha256(payload),
    }
    return out, len(out)


def build_counts(result, tr: Tracer, built: list) -> tuple[dict, dict]:
    lk = result[0].space
    with tr.span("core.covers"):
        edges = len(lk.covers())
    counts = space_counts([s for s in built if s is not lk])
    counts["core.points"] += lk.n
    counts["core.order_pairs"] += sum(m.bit_count() for m in lk.up)
    counts["core.hasse_edges"] += edges
    return counts, {}


WORKLOADS = {
    "homeo-large": (homeo_prepare, homeo_run, homeo_outputs, homeo_counts),
    "verify-all": (verify_prepare, verify_run, verify_outputs, verify_counts),
    "build-export": (build_prepare, build_run, build_outputs, build_counts),
}


def setup_done() -> dict:
    """When set-up ended, and the machine's speed right after it."""
    ready = time.monotonic()
    probe = SpeedProbe()
    for _ in range(SETUP_PROBES):
        probe.probe()
    return {"ready": ready, "setup_speed": probe.speed}


def execute(workload: str, seed: int, trace: bool, run_id: str, expected: dict) -> dict:
    prepare, run, outputs, counts = WORKLOADS[workload]
    inputs = prepare(seed)
    record = setup_done()
    record.update(checks=expected["checks"], failed=expected["checks"])
    tr = Tracer(run_id, trace)
    built: list = []
    try:
        with patched(powerspaces, "_finish", collecting(built)) if trace else contextlib.nullcontext(), \
                SpeedProbe() as probe:
            t0 = time.perf_counter()
            with tr.span(f"bench.{workload}"):
                result = run(inputs, tr)
            record["wall_s"] = time.perf_counter() - t0
        record["speed"] = probe.speed
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out, checks = outputs(result)
        record["outputs"] = out
        record["checks"] = checks
        if out == expected["outputs"]:
            record["failed"] = 0
        else:
            # any wrong output fails every check of the execution
            record["failed"] = checks
            for key, value in out.items():
                if value != expected["outputs"].get(key):
                    print(f"{workload}: {key} = {value!r}, expected {expected['outputs'].get(key)!r}",
                          file=sys.stderr)
        if trace:
            record["counts"], record["report_s"] = counts(result, tr, built)
    except Exception:  # the boundary: report the failure, count every check failed
        traceback.print_exc()
        record["error"] = traceback.format_exc(limit=1).strip().splitlines()[-1]
    record["spans"] = tr.spans
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--expected", default=str(HERE / "expected.json"))
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only when it ended")
    args = parser.parse_args()
    if args.setup_only:
        WORKLOADS[args.workload][0](args.seed)
        print(json.dumps(setup_done()))
        return 0
    with open(args.expected) as fh:
        expected = json.load(fh)[args.workload]
    record = execute(args.workload, args.seed, bool(args.trace), args.run_id, expected)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
