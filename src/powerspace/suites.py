"""Verification suites: each one sweeps a family of spaces and emits a
deterministic report.

Per-space jobs are pure functions of the space, so the runner can fan
them out to a process pool; results are merged back in canonical order
regardless of worker scheduling.  Timings live in their own section of
the report and are the only non-deterministic part.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product

from .config import DEFAULT_LIMITS, Limits
from .core import (
    FiniteSpace,
    PtSet,
    Verdict,
    _jsonable,
    count_upper_sets,
    enumerate_spaces,
    iter_continuous_maps,
    subspace,
)
from .errors import PowerspaceTooLarge
from . import canonical, checkers, omega, pi02
from .approx import canonical_approx_relation, require_valid_relation, validate_approx_relation, wilker_split
from .canonical import PAIR_BUILDERS, check_distributive_law, naturality_squares, verify_pair
from .powerspaces import Powers, algebra_laws, monad_laws, monad_preimage_identities

SUITES = ("homeo", "monad", "consonance", "pi02", "wilker", "counterexamples")


@dataclass(frozen=True)
class CheckRecord:
    name: str
    subject: str
    passed: bool
    witness: object = None
    millis: float = 0.0

    def sort_key(self):
        return (self.subject, self.name)


@dataclass
class SuiteReport:
    suite: str
    subjects: list[str]
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.passed)

    def merge(self, other: "SuiteReport") -> "SuiteReport":
        merged = SuiteReport(
            suite="all",
            subjects=sorted(set(self.subjects) | set(other.subjects)),
            records=self.records + other.records,
        )
        return merged

    def lines(self) -> list[str]:
        out = []
        for r in sorted(self.records, key=CheckRecord.sort_key):
            status = "PASS" if r.passed else "FAIL"
            line = f"{status} {self.suite}:{r.subject}:{r.name}"
            if not r.passed and r.witness is not None:
                line += f"  witness={json.dumps(_jsonable(r.witness), sort_keys=True)}"
            out.append(line)
        out.append(
            f"suite={self.suite} subjects={len(self.subjects)} checks={len(self.records)} failed={self.failed}"
        )
        return out

    def to_json(self, include_timings: bool = True) -> dict:
        body = {
            "suite": self.suite,
            "subjects": sorted(self.subjects),
            "checks": [
                {
                    "name": r.name,
                    "subject": r.subject,
                    "passed": r.passed,
                    "witness": _jsonable(r.witness),
                }
                for r in sorted(self.records, key=CheckRecord.sort_key)
            ],
            "failed": self.failed,
        }
        if include_timings:
            body["timings"] = {
                f"{r.subject}:{r.name}": round(r.millis, 3)
                for r in sorted(self.records, key=CheckRecord.sort_key)
            }
        return body


def _rec(name: str, subject: str, verdict: Verdict, t0: float) -> CheckRecord:
    return CheckRecord(
        name=name,
        subject=subject,
        passed=verdict.holds,
        witness=None if verdict.holds else verdict.witness,
        millis=(time.monotonic() - t0) * 1000,
    )


def _timed(name: str, subject: str, check, *args) -> CheckRecord:
    t0 = time.monotonic()
    return _rec(name, subject, check(*args), t0)


def _label(space: FiniteSpace) -> str:
    return f"n{space.n}-{space.fingerprint}"


def _spaces(max_points: int, include_empty: bool):
    spaces = enumerate_spaces(max_points, up_to_iso=True)
    return [s for s in spaces if include_empty or s.n > 0]


# ---------------------------------------------------------------------------
# per-space jobs (top level, so a process pool can pickle them)


def homeo_space_job(args) -> list[CheckRecord]:
    space, limits = args
    subject = _label(space)
    out = []
    pw = Powers(space, limits)
    for name, builder in PAIR_BUILDERS.items():
        t0 = time.monotonic()
        pair = builder(pw, limits)
        out.append(_rec(f"pair[{name}]", subject, verify_pair(pair), t0))
    t0 = time.monotonic()
    out.append(_rec("preimage_identities", subject, canonical.check_preimage_identities(pw, limits), t0))
    t0 = time.monotonic()
    sizes = {"A(K)": pw.AK.space.n, "K(A)": pw.KA.space.n, "O(O)": pw.OO.space.n}
    # lower sets of K(X), upper sets of A(X) and of O(X), counted independently
    oracle = {
        "A(K)": count_upper_sets(pw.K.space),
        "K(A)": count_upper_sets(pw.A.space),
        "O(O)": count_upper_sets(pw.O.space),
    }
    ok = sizes["A(K)"] == sizes["K(A)"] == sizes["O(O)"] and oracle == sizes
    verdict = Verdict(ok, witness=None if ok else {"sizes": sizes, "oracle": oracle})
    out.append(_rec("cardinality_crosscheck", subject, verdict, t0))
    return out


def monad_space_job(args) -> list[CheckRecord]:
    space, limits = args
    subject = _label(space)
    pw = Powers(space, limits)
    out = []
    for kind in ("A", "K"):
        out.append(_timed(f"monad_laws[{kind}]", subject, monad_laws, kind, pw, limits))
        out.append(_timed(f"monad_preimages[{kind}]", subject, monad_preimage_identities, kind, pw, limits))
        out.append(_timed(f"algebra_laws[{kind}]", subject, algebra_laws, kind, pw, limits))
    if space.n <= 2:
        out.append(_timed("distributive_law", subject, check_distributive_law, pw, limits))
    return out


def consonance_space_job(args) -> list[CheckRecord]:
    space, limits = args
    subject = _label(space)
    pw = Powers(space, limits)
    out = []
    # the checkers keep their verdicts on the tower they run on, so
    # consonance_equivalence and strong_compactness_implications reuse them;
    # checks handed a Powers read its limits
    out.append(_timed("consonance_equivalence", subject, checkers.consonance_equivalence, pw))
    out.append(_timed("is_consonant[X]", subject, checkers.is_consonant, pw))
    out.append(_timed("is_co_consonant[X]", subject, checkers.is_co_consonant, pw))
    out.append(_timed("is_wilker[X]", subject, checkers.is_wilker, pw))
    out.append(_timed("is_sober[X]", subject, checkers.is_sober, space, limits))
    out.append(_timed("lower_weak_coincidence", subject, checkers.topology_coincidence, pw.A, "weak", limits))
    out.append(_timed("upper_scott_coincidence", subject, checkers.topology_coincidence, pw.K, "scott", limits))
    out.append(_timed("is_sober[A(X)]", subject, checkers.is_sober, pw.A.space, limits))
    out.append(_timed("is_sober[O(X)]", subject, checkers.is_sober, pw.O.space, limits))
    out.append(_timed("is_consonant[O(X)]", subject, checkers.is_consonant, pw.over("O")))
    out.append(_timed("is_co_consonant[O(X)]", subject, checkers.is_co_consonant, pw.over("O")))
    out.append(_timed("strong_compactness_implications", subject, checkers.strong_compactness_implications, pw))
    if space.n <= 2:
        out.append(_timed("double_weak_coincidence", subject, checkers.topology_coincidence, pw.KA, "weak", limits))
    out.append(_timed("is_consonant[K(X)]", subject, checkers.is_consonant, pw.over("K")))
    out.append(_timed("is_co_consonant[K(X)]", subject, checkers.is_co_consonant, pw.over("K")))
    if space.n <= 3:
        # the triple-level composites behind sigma over K(X) stay capped here
        out.append(_timed("consonance_equivalence[K(X)]", subject, checkers.consonance_equivalence, pw.over("K")))
    return out


def pi02_space_job(args) -> list[CheckRecord]:
    space, limits = args
    subject = _label(space)
    pw = Powers(space, limits)
    out = []
    for mask in range(1 << space.n):
        sub, embedding = subspace(space, mask)
        pres = pi02.presentation_for_subset(space, mask)
        t0 = time.monotonic()
        ok = pi02.pi02_eval(pres).mask == mask
        out.append(
            _rec(
                f"presentation_roundtrip[{mask}]",
                subject,
                Verdict(ok, witness=None if ok else {"mask": mask}),
                t0,
            )
        )
        # the subset's constructions are built inside the check that first uses them
        sub_pw = Powers(sub, limits)
        out.append(_timed(f"lower_range[{mask}]", subject,
                          lambda: pi02.lower_embedding_range(embedding, pres, sub_pw.A, pw.A)))
        out.append(_timed(f"upper_range[{mask}]", subject,
                          lambda: pi02.upper_embedding_range(embedding, pres, sub_pw.K, pw.K, limits)))
    out.append(_timed("lens_identification", subject, pi02.lens_pi02, pw, limits))
    out.append(_timed("unit_image_characterizations", subject, pi02.eta_image_characterizations, pw, limits))
    return out


def wilker_space_job(args) -> list[CheckRecord]:
    space, limits = args
    subject = _label(space)
    out = []
    if space.n == 0:
        return out  # no approximation relation exists on the empty space
    relation = canonical_approx_relation(space, limits)
    t0 = time.monotonic()
    out.append(_rec("canonical_relation_valid", subject, validate_approx_relation(relation, limits), t0))
    require_valid_relation(relation, limits)
    opens = space.opens(limits)
    t0 = time.monotonic()
    triples = 0
    failure = None
    checked = set()
    # wilker_split raises on a split that misses its cover; the saturation
    # of K1 and K2, which wilker_decompose also promises, is checked here,
    # once per distinct split, at the first triple that splits that way
    for u1, u2, k in product(opens, repeat=3):
        if k & ~(u1 | u2):
            continue
        triples += 1
        split = wilker_split(relation, k, u1, u2, limits)
        if split in checked:
            continue
        checked.add(split)
        k1, k2 = split
        if space.saturation_mask(k1) != k1 or space.saturation_mask(k2) != k2:
            failure = {"K": PtSet(space, k), "U1": PtSet(space, u1), "U2": PtSet(space, u2)}
            break
    verdict = Verdict(failure is None, witness=failure, info={"triples": triples})
    out.append(_rec("decompose_all_triples", subject, verdict, t0))
    return out


JOBS = {
    "homeo": homeo_space_job,
    "monad": monad_space_job,
    "consonance": consonance_space_job,
    "pi02": pi02_space_job,
    "wilker": wilker_space_job,
}

DEFAULT_SCOPE = {"homeo": 4, "monad": 3, "consonance": 4, "pi02": 3, "wilker": 4}


def _space_job(args) -> list[CheckRecord]:
    suite, space, limits = args
    try:
        return JOBS[suite]((space, limits))
    except PowerspaceTooLarge as exc:
        raise PowerspaceTooLarge(f"{_label(space)}: {exc}") from None


def _run_spaces(suite: str, spaces, limits: Limits, jobs: int) -> list[CheckRecord]:
    args = [(suite, s, limits) for s in spaces]
    if jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_space_job, args))
    else:
        chunks = list(map(_space_job, args))
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=CheckRecord.sort_key)
    return records


def run_suite(
    suite: str,
    max_points: int | None = None,
    include_empty: bool = False,
    jobs: int = 1,
    limits: Limits = DEFAULT_LIMITS,
) -> SuiteReport:
    if suite == "all":
        parts = [
            run_suite(s, max_points, include_empty, jobs, limits) for s in SUITES
        ]
        report = parts[0]
        for part in parts[1:]:
            report = report.merge(part)
        return report
    if suite == "counterexamples":
        report = SuiteReport(suite="counterexamples", subjects=["omega"])
        for name, fn in omega.COUNTEREXAMPLES.items():
            t0 = time.monotonic()
            report.records.append(_rec(name, "omega", fn(samples=100, seed=limits.seed), t0))
        t0 = time.monotonic()
        report.records.append(_rec("cofinset_algebra_oracle", "omega", _cofinset_oracle_check(limits.seed), t0))
        return report
    if suite not in JOBS:
        raise ValueError(f"unknown suite {suite!r}")
    scope = max_points if max_points is not None else DEFAULT_SCOPE[suite]
    spaces = _spaces(scope, include_empty)
    report = SuiteReport(suite=suite, subjects=[_label(s) for s in spaces])
    report.records = _run_spaces(suite, spaces, limits, jobs)
    if suite == "homeo":
        report.records.extend(_naturality_records(min(scope, 3), include_empty, limits))
        report.records.sort(key=CheckRecord.sort_key)
    return report


def _naturality_records(max_points: int, include_empty: bool, limits: Limits) -> list[CheckRecord]:
    spaces = _spaces(max_points, include_empty)
    powers = {s.fingerprint: Powers(s, limits) for s in spaces}
    out = []
    for dom in spaces:
        for cod in spaces:
            subject = f"{_label(dom)}->{_label(cod)}"
            t0 = time.monotonic()
            bad = None
            squares = 0
            try:
                for f in iter_continuous_maps(dom, cod):
                    for which, v in naturality_squares(f, powers[dom.fingerprint], powers[cod.fingerprint]):
                        squares += 1
                        if not v.holds:
                            bad = {"map": list(f.table), "square": which, "detail": v.witness}
                            break
                    if bad:
                        break
            except PowerspaceTooLarge as exc:
                raise PowerspaceTooLarge(f"{subject}: {exc}") from None
            out.append(
                _rec("naturality", subject, Verdict(bad is None, witness=bad, info={"squares": squares}), t0)
            )
    return out


def _cofinset_oracle_check(seed: int, instances: int = 100) -> Verdict:
    """CofinSet algebra against the 32-element truncated model."""
    import random

    rng = random.Random(seed)
    universe = 32
    ground = frozenset(range(universe))
    for i in range(instances):
        def rand_set():
            support = frozenset(rng.randrange(universe - 1) for _ in range(rng.randrange(4)))
            return omega.CofinSet(rng.random() < 0.5, support, rng.random() < 0.5)

        a, b = rand_set(), rand_set()
        ra, ta = a.realize(universe)
        rb, tb = b.realize(universe)
        ru, tu = a.union(b).realize(universe)
        ri, ti = a.intersection(b).realize(universe)
        rc, tc = a.complement().realize(universe)
        ok = (
            ru == ra | rb
            and tu == (ta or tb)
            and ri == ra & rb
            and ti == (ta and tb)
            and rc == ground - ra
            and tc == (not ta)
            and a.complement().complement() == a
            and a.is_subset(b) == (ra <= rb and (ta <= tb))
        )
        if not ok:
            return Verdict(False, witness={"instance": i, "a": repr(a), "b": repr(b)})
    return Verdict(True, info={"checker": "cofinset_algebra_oracle", "instances": instances})
