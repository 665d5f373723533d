"""Acceptance gate: every criterion at its stated tolerance.

All tolerances are exact (zero failing checks); the two timed criteria
carry wall-clock budgets.  Run with `pytest tests/test_acceptance.py -v -s`
to see one line per criterion.
"""

import random
import time

from powerspace.core import antichain, chain, sierpinski
from powerspace.omega import COUNTEREXAMPLES, CofinSet
from powerspace.suites import run_suite


def _report(tag, text):
    print(f"\n[{tag}] {text}")


def test_criterion_1_homeomorphism_suite():
    t0 = time.monotonic()
    report = run_suite("homeo", max_points=4, include_empty=True)
    elapsed = time.monotonic() - t0
    spaces = [s for s in report.subjects if "->" not in s]
    pair_checks = [r for r in report.records if r.name.startswith("pair[")]
    identity_checks = [r for r in report.records if r.name == "preimage_identities"]
    # every non-isomorphic T0 space on at most 4 points, the empty one included
    assert len(spaces) == 25
    assert len(pair_checks) == 25 * 4
    assert len(identity_checks) == 25
    assert report.failed == 0
    assert elapsed <= 60.0
    _report("criterion-1", f"homeomorphism suite: PASS "
            f"({len(spaces)} spaces, {len(report.records)} checks, 0 failures, {elapsed:.1f}s)")


def test_criterion_2_cardinality_crosschecks():
    def brute_lower_count(space):
        return sum(1 for m in range(1 << space.n) if space.is_lower(m))

    def brute_upper_count(space):
        return sum(1 for m in range(1 << space.n) if space.is_upper(m))

    from powerspace.powerspaces import lower_powerspace, open_lattice, upper_powerspace

    expected = {
        "sierpinski": (sierpinski(), 4),
        "discrete-pair": (antichain(2), 6),
        "three-chain": (chain(3), 5),
        "three-antichain": (antichain(3), 20),
    }
    for name, (space, value) in expected.items():
        k_sp = upper_powerspace(space)
        a_sp = lower_powerspace(space)
        o_sp = open_lattice(space)
        # oracle first: plain subset filters, independent of the DFS enumerator
        oracle = (
            brute_lower_count(k_sp.space),
            brute_upper_count(a_sp.space),
            brute_upper_count(o_sp.space),
        )
        assert oracle == (value, value, value), name
        built = (
            lower_powerspace(k_sp).space.n,
            upper_powerspace(a_sp).space.n,
            open_lattice(o_sp).space.n,
        )
        assert built == (value, value, value), name
    _report("criterion-2", "cardinality cross-checks: PASS (4=4=4, 6=6=6, 5=5=5, 20=20=20)")


def test_criterion_3_monad_and_algebra_suite():
    report = run_suite("monad", max_points=3, include_empty=True)
    law_checks = [r for r in report.records if r.name.startswith(("monad_laws", "monad_preimages", "algebra_laws"))]
    assert len(law_checks) == 9 * 6  # nine spaces, six law families each
    assert report.failed == 0
    _report("criterion-3", f"monad and algebra suite: PASS ({len(report.records)} checks, 0 failures)")


def test_criterion_4_consonance_suite():
    report = run_suite("consonance", max_points=4, include_empty=True)
    assert len(report.subjects) == 25
    assert report.failed == 0
    names = {r.name for r in report.records}
    for needed in (
        "consonance_equivalence",
        "lower_weak_coincidence",
        "upper_scott_coincidence",
        "is_sober[A(X)]",
        "is_sober[O(X)]",
        "is_wilker[X]",
        "is_consonant[X]",
        "is_co_consonant[X]",
        "is_consonant[O(X)]",
        "is_co_consonant[O(X)]",
        "is_consonant[K(X)]",
        "is_co_consonant[K(X)]",
        "consonance_equivalence[K(X)]",
        "strong_compactness_implications",
    ):
        assert needed in names, needed
    _report("criterion-4", f"consonance and coincidence suite: PASS ({len(report.records)} checks, 0 failures)")


def test_criterion_5_pi02_suite():
    report = run_suite("pi02", max_points=3, include_empty=True)
    assert report.failed == 0
    lens_checks = [r for r in report.records if r.name == "lens_identification"]
    assert len(lens_checks) == 9
    _report("criterion-5", f"presented-subspace suite: PASS ({len(report.records)} checks, 0 failures)")


def test_criterion_6_wilker_algorithm():
    t0 = time.monotonic()
    report = run_suite("wilker", max_points=4, include_empty=True)
    elapsed = time.monotonic() - t0
    assert report.failed == 0
    triples = [r for r in report.records if r.name == "decompose_all_triples"]
    assert len(triples) == 24  # every non-empty space on at most 4 points
    assert elapsed <= 30.0
    _report("criterion-6", f"decomposition algorithm: PASS "
            f"({len(triples)} spaces swept, 0 failures, {elapsed:.1f}s)")


def test_criterion_7_naturality_and_distributivity():
    homeo = run_suite("homeo", max_points=3, include_empty=True)
    nat = [r for r in homeo.records if r.name == "naturality"]
    assert len(nat) == 9 * 9
    assert all(r.passed for r in nat)
    monad = run_suite("monad", max_points=2, include_empty=True)
    beck = [r for r in monad.records if r.name == "distributive_law"]
    assert len(beck) == 4  # empty space, point, chain, antichain
    assert all(r.passed for r in beck)
    _report("criterion-7", f"naturality and distributive law: PASS "
            f"({len(nat)} map pairs, {len(beck)} Beck checks, 0 failures)")


def test_criterion_8_counterexample_suite():
    report = run_suite("counterexamples")
    assert report.failed == 0
    assert len(report.records) == 4
    for fn in COUNTEREXAMPLES.values():
        v = fn(samples=100, seed=0)
        assert v.holds and v.info["instances"] == 100

    rng = random.Random(0)
    universe = 32
    ground = frozenset(range(universe))
    per_op = {"union": 0, "intersection": 0, "complement": 0}
    for _ in range(100):
        def rand_set():
            support = frozenset(rng.randrange(universe - 1) for _ in range(rng.randrange(4)))
            return CofinSet(rng.random() < 0.5, support, rng.random() < 0.5)

        a, b = rand_set(), rand_set()
        ra, ta = a.realize(universe)
        rb, tb = b.realize(universe)
        ru, tu = a.union(b).realize(universe)
        assert ru == ra | rb and tu == (ta or tb)
        per_op["union"] += 1
        ri, ti = a.intersection(b).realize(universe)
        assert ri == ra & rb and ti == (ta and tb)
        per_op["intersection"] += 1
        rc, tc = a.complement().realize(universe)
        assert rc == ground - ra and tc == (not ta)
        per_op["complement"] += 1
    assert all(v == 100 for v in per_op.values())
    _report("criterion-8", "counterexample suite: PASS (3 verdicts, 4 suite checks, 100 oracle instances per operation)")
