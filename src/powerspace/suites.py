"""Verification suites: each one sweeps a family of spaces and emits a
deterministic report.

A per-space job yields named checks over one tower, the Powers of its
subject; a check is a function of no arguments that returns a Verdict.
_timed runs the checks and makes every record, timing each check from
its call to its verdict, so the timings charge each check with the
builds it triggers.  Jobs are pure functions of the space, so the runner
can fan them out to a process pool, each worker making its own records;
results are merged back in canonical order regardless of worker
scheduling.  Timings live in their own section of the report and are
the only non-deterministic part.

Within one run_suite call, jobs share one tower per subject: _tower
keeps the towers by (space, limits), so every suite of "all", the
naturality records and pi02's subspaces read one Powers per subject and
build each construction once.  A tower is a cache of pure functions of
its subject, so sharing it changes no record, only which check a
build's time is charged to.  The memo lives for the outermost call and
is dropped when it returns or raises; each pool worker keeps its own
for the life of the pool.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cache, partial
from itertools import product, repeat

from .config import DEFAULT_LIMITS, Limits
from .core import (
    FiniteSpace,
    PtSet,
    Verdict,
    _jsonable,
    count_upper_sets,
    enumerate_spaces,
    generating_maps,
    iter_continuous_maps,
    subspace,
)
from .errors import PowerspaceTooLarge
from . import canonical, checkers, omega, pi02
from .approx import ApproxRelation, canonical_approx_relation, validate_approx_relation, wilker_splits
from .canonical import PAIR_BUILDERS, check_distributive_law, naturality_squares, verify_pair
from .powerspaces import Powers, algebra_laws, monad_laws, monad_preimage_identities

SUITES = ("homeo", "monad", "consonance", "pi02", "wilker", "counterexamples")


@dataclass(frozen=True)
class CheckRecord:
    name: str
    subject: str
    passed: bool
    witness: object
    millis: float

    def sort_key(self):
        return (self.subject, self.name)


@dataclass
class SuiteReport:
    suite: str
    subjects: list[str]
    records: list[CheckRecord]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.passed)

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
        records = sorted(self.records, key=CheckRecord.sort_key)
        checks = [{"name": r.name, "subject": r.subject, "passed": r.passed, "witness": _jsonable(r.witness)} for r in records]
        body = {"suite": self.suite, "subjects": sorted(self.subjects), "checks": checks, "failed": self.failed}
        if include_timings:
            body["timings"] = {f"{r.subject}:{r.name}": round(r.millis, 3) for r in records}
        return body


def _timed(subject: str, checks) -> list[CheckRecord]:
    """The records of the (name, check) pairs of one subject.  Each check
    runs before the next pair is drawn, so a check may read its job's
    loop variables.  A cap hit, in a check or between checks, names the
    subject."""
    records = []
    try:
        for name, check in checks:
            t0 = time.monotonic()
            verdict = check()
            millis = (time.monotonic() - t0) * 1000
            records.append(CheckRecord(name, subject, verdict.holds, verdict.witness, millis))
    except PowerspaceTooLarge as exc:
        raise PowerspaceTooLarge(f"{subject}: {exc}") from None
    return records


def _label(space: FiniteSpace) -> str:
    return f"n{space.n}-{space.fingerprint}"


def _spaces(max_points: int, include_empty: bool):
    spaces = enumerate_spaces(max_points)
    return [s for s in spaces if include_empty or s.n > 0]


# ---------------------------------------------------------------------------
# per-space jobs; checks handed the tower read its limits


def homeo_space_job(pw: Powers):
    for name, builder in PAIR_BUILDERS.items():
        yield f"pair[{name}]", lambda: verify_pair(builder(pw))
    yield "preimage_identities", lambda: canonical.check_preimage_identities(pw)
    yield "cardinality_crosscheck", lambda: _cardinality_crosscheck(pw)


def _cardinality_crosscheck(pw: Powers) -> Verdict:
    """A(K(X)), K(A(X)) and O(O(X)) have equally many points, as many as
    the lower sets of K(X), the upper sets of A(X) and of O(X), counted
    independently.  The count FiniteSpace.refuse_over_cap makes to refuse
    a build over the cap feeds no built size, which is the length of an
    enumeration, so the crosscheck stays independent."""
    sizes = {"A(K)": pw.AK.space.n, "K(A)": pw.KA.space.n, "O(O)": pw.OO.space.n}
    oracle = {
        "A(K)": count_upper_sets(pw.K.space),
        "K(A)": count_upper_sets(pw.A.space),
        "O(O)": count_upper_sets(pw.O.space),
    }
    ok = sizes["A(K)"] == sizes["K(A)"] == sizes["O(O)"] and oracle == sizes
    return Verdict(ok, witness=None if ok else {"sizes": sizes, "oracle": oracle})


def monad_space_job(pw: Powers):
    for kind in ("A", "K"):
        yield f"monad_laws[{kind}]", lambda: monad_laws(kind, pw)
        yield f"monad_preimages[{kind}]", lambda: monad_preimage_identities(kind, pw)
        yield f"algebra_laws[{kind}]", lambda: algebra_laws(kind, pw)
    if pw.base.n <= 2:
        yield "distributive_law", lambda: check_distributive_law(pw)


def consonance_space_job(pw: Powers):
    space, limits = pw.base, pw.limits
    # the checkers keep their verdicts on the tower they run on, so
    # consonance_equivalence and strong_compactness_implications reuse them
    yield "consonance_equivalence", lambda: checkers.consonance_equivalence(pw)
    yield "is_consonant[X]", lambda: checkers.is_consonant(pw)
    yield "is_co_consonant[X]", lambda: checkers.is_co_consonant(pw)
    yield "is_wilker[X]", lambda: checkers.is_wilker(pw)
    yield "is_sober[X]", lambda: checkers.is_sober(space, limits)
    yield "lower_weak_coincidence", lambda: checkers.topology_coincidence(pw.A, "weak")
    yield "upper_scott_coincidence", lambda: checkers.topology_coincidence(pw.K, "scott")
    yield "is_sober[A(X)]", lambda: checkers.is_sober(pw.A.space, limits)
    yield "is_sober[O(X)]", lambda: checkers.is_sober(pw.O.space, limits)
    yield "is_consonant[O(X)]", lambda: checkers.is_consonant(pw.over("O"))
    yield "is_co_consonant[O(X)]", lambda: checkers.is_co_consonant(pw.over("O"))
    yield "strong_compactness_implications", lambda: checkers.strong_compactness_implications(pw)
    if space.n <= 2:
        yield "double_weak_coincidence", lambda: checkers.topology_coincidence(pw.KA, "weak")
    yield "is_consonant[K(X)]", lambda: checkers.is_consonant(pw.over("K"))
    yield "is_co_consonant[K(X)]", lambda: checkers.is_co_consonant(pw.over("K"))
    if space.n <= 3:
        # the triple-level composites behind sigma over K(X) stay capped here
        yield "consonance_equivalence[K(X)]", lambda: checkers.consonance_equivalence(pw.over("K"))


def pi02_space_job(pw: Powers):
    space, limits = pw.base, pw.limits
    for mask in range(1 << space.n):
        sub, embedding = subspace(space, mask)
        pres = pi02.presentation_for_subset(space, mask)
        yield f"presentation_roundtrip[{mask}]", lambda: _presentation_roundtrip(pres, mask)
        # the subset's constructions are built inside the check that first
        # uses them, once per call for equal subspaces of different subjects
        sub_pw = _tower(sub, limits)
        yield f"lower_range[{mask}]", lambda: pi02.lower_embedding_range(embedding, pres, sub_pw.A, pw.A)
        yield f"upper_range[{mask}]", lambda: pi02.upper_embedding_range(embedding, pres, sub_pw.K, pw.K)
    yield "lens_identification", lambda: pi02.lens_pi02(pw)
    yield "unit_image_characterizations", lambda: pi02.eta_image_characterizations(pw)


def _presentation_roundtrip(pres: pi02.Pi02Presentation, mask: int) -> Verdict:
    """The presentation made for mask evaluates to mask."""
    ok = pi02.pi02_eval(pres).mask == mask
    return Verdict(ok, witness=None if ok else {"mask": mask})


def wilker_space_job(pw: Powers):
    space, limits = pw.base, pw.limits
    if space.n == 0:
        return  # no approximation relation exists on the empty space
    relation = canonical_approx_relation(space, limits)
    yield "canonical_relation_valid", lambda: validate_approx_relation(relation, limits)
    yield "decompose_all_triples", lambda: _decompose_all_triples(relation, limits)


def _decompose_all_triples(relation: ApproxRelation, limits: Limits) -> Verdict:
    """K1 and K2 split K under the cover and are saturated for every
    triple (U1, U2, K) of opens with K inside U1 | U2.  A relation that
    fails its axioms fails here too, named by the axiom it fails.  A
    split missing its cover comes from wilker_splits as None, a plain
    test, with no exception to catch.

    wilker_splits decides each unordered cover pair once, and a mirror
    fails exactly when its triple does (its docstring), so the witness
    is the first failing triple in product order.  A pass counts the
    ordered triples covered, a decided triple with U1 != U2 counting
    for its mirror too, and the triples decided; a failure counts the
    triples decided up to the witness."""
    axioms = validate_approx_relation(relation, limits)
    if not axioms.holds:
        return Verdict(False, witness={"relation": axioms.witness})
    space = relation.space
    triples = decided = 0
    checked = set()
    # the saturation of K1 and K2, which wilker_decompose also promises,
    # is checked here, once per distinct split, at the first triple that
    # splits that way
    for u1, u2, k, split in wilker_splits(relation, limits):
        decided += 1
        triples += 1 if u1 == u2 else 2
        if split in checked:
            continue
        checked.add(split)
        if split is None or any(space.saturation_mask(m) != m for m in split):
            failure = {"K": PtSet(space, k), "U1": PtSet(space, u1), "U2": PtSet(space, u2)}
            return Verdict(False, witness=failure, info={"decided": decided})
    return Verdict(True, info={"triples": triples, "decided": decided})


JOBS = {
    "homeo": homeo_space_job,
    "monad": monad_space_job,
    "consonance": consonance_space_job,
    "pi02": pi02_space_job,
    "wilker": wilker_space_job,
}

DEFAULT_SCOPE = {"homeo": 4, "monad": 3, "consonance": 4, "pi02": 3, "wilker": 4}


_towers: dict | None = None  # (space, limits) -> Powers, while a run_suite call is open


def _tower(space: FiniteSpace, limits: Limits) -> Powers:
    """The tower of space under limits: the one kept for this run_suite
    call, or a fresh one outside a call."""
    if _towers is None:
        return Powers(space, limits)
    pw = _towers.get((space, limits))
    if pw is None:
        pw = _towers[space, limits] = Powers(space, limits)
    return pw


def _open_towers() -> None:
    """Start a pool worker's memo; a forked worker keeps the one it
    inherited."""
    global _towers
    if _towers is None:
        _towers = {}


def _space_job(suite: str, space: FiniteSpace, limits: Limits) -> list[CheckRecord]:
    return _timed(_label(space), JOBS[suite](_tower(space, limits)))


def _run_spaces(suite: str, spaces, limits: Limits, jobs: int) -> list[CheckRecord]:
    args = (repeat(suite), spaces, repeat(limits))
    if jobs > 1 and len(spaces) > 1:
        # imported here: the pool pulls in multiprocessing, which a
        # single-process run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs, initializer=_open_towers) as pool:
            chunks = list(pool.map(_space_job, *args))
    else:
        chunks = list(map(_space_job, *args))
    return [r for chunk in chunks for r in chunk]


def run_suite(
    suite: str,
    max_points: int | None = None,
    include_empty: bool = False,
    jobs: int = 1,
    limits: Limits = DEFAULT_LIMITS,
) -> SuiteReport:
    """The report of suite, or of every suite for "all".  The outermost
    call keeps one tower per subject for its whole run, nested calls
    share it, and it is dropped when the outermost call ends."""
    global _towers
    if _towers is not None:
        return _run_suite(suite, max_points, include_empty, jobs, limits)
    _towers = {}
    try:
        return _run_suite(suite, max_points, include_empty, jobs, limits)
    finally:
        _towers = None


def _run_suite(suite: str, max_points, include_empty: bool, jobs: int, limits: Limits) -> SuiteReport:
    if suite == "all":
        parts = [run_suite(s, max_points, include_empty, jobs, limits) for s in SUITES]
        subjects = sorted({s for part in parts for s in part.subjects})
        return SuiteReport("all", subjects, [r for part in parts for r in part.records])
    if suite == "counterexamples":
        checks = [(name, partial(fn, samples=100, seed=limits.seed)) for name, fn in omega.COUNTEREXAMPLES.items()]
        checks.append(("cofinset_algebra_oracle", partial(_cofinset_oracle_check, limits.seed)))
        return SuiteReport("counterexamples", ["omega"], _timed("omega", checks))
    if suite not in JOBS:
        raise ValueError(f"unknown suite {suite!r}")
    scope = max_points if max_points is not None else DEFAULT_SCOPE[suite]
    spaces = _spaces(scope, include_empty)
    records = _run_spaces(suite, spaces, limits, jobs)
    if suite == "homeo":
        records += _naturality_records(min(scope, 3), include_empty, limits)
    return SuiteReport(suite, [_label(s) for s in spaces], sorted(records, key=CheckRecord.sort_key))


def _naturality_records(max_points: int, include_empty: bool, limits: Limits) -> list[CheckRecord]:
    """One naturality record per ordered pair of spaces, over one tower
    per space, decided on generators.

    Squares paste along composition, and lifting preserves it (see
    powerspaces.lift_table), so the eight squares hold over every map
    exactly when they hold over each of core.generating_maps.  The first
    pair's check decides the generator squares once, for every pair, so
    that pair's record carries the generator pass's time and its cap
    hits.  If they all hold, every pair passes.  If one fails, every pair
    runs the literal sweep of _naturality over all its maps, which names
    the first failing map and square.

    Inside a run_suite call the towers are the call's, so the homeo jobs'
    builds and kept pairs serve here too; called outside one, it makes
    its own.
    """
    spaces = _spaces(max_points, include_empty)
    towers = {s: _tower(s, limits) for s in spaces}

    @cache
    def generators_hold() -> bool:
        return all(
            v.holds
            for f in generating_maps(spaces)
            for _, v in naturality_squares(f, towers[f.domain], towers[f.codomain])
        )

    def naturality(px: Powers, py: Powers) -> Verdict:
        return Verdict(True) if generators_hold() else _naturality(px, py)

    out = []
    for px, py in product(towers.values(), repeat=2):
        out += _timed(f"{_label(px.base)}->{_label(py.base)}", [("naturality", partial(naturality, px, py))])
    return out


def _naturality(px: Powers, py: Powers) -> Verdict:
    """The eight squares over every continuous map between the subjects
    of px and py."""
    squares = 0
    for f in iter_continuous_maps(px.base, py.base):
        for which, v in naturality_squares(f, px, py):
            squares += 1
            if not v.holds:
                bad = {"map": list(f.table), "square": which, "detail": v.witness}
                return Verdict(False, witness=bad, info={"squares": squares})
    return Verdict(True, info={"squares": squares})


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
