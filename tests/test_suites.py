import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from powerspace import approx, checkers, powerspaces, suites
from powerspace.config import DEFAULT_LIMITS
from powerspace.core import PtSet, Verdict, antichain, enumerate_spaces, sierpinski
from powerspace.errors import PowerspaceTooLarge
from powerspace.powerspaces import Powers
from powerspace.suites import SUITES, _space_job, _timed, consonance_space_job, monad_space_job, run_suite

from oracles import labelled_spaces

# sha256 of each suite's report body without timings and of its stdout
# lines, at default scope; they pin every verdict and witness.
GOLDEN = {
    "homeo": ("2b4892b2a09554357feeefe5d6d78456351b88a587d0b917e63036cb0612ea44",
              "168a985c902f2cc987d24744127deb87451cd7156bc5bd23b65e5ed40024890e"),
    "monad": ("6863ffdd44c74387334b21100a09906deca8099dfb3ec3daabb1ab6a789c9a9e",
              "5d7b9aef19c79babd185f9abeca587396bf48132e589bc6370ff4d16ce8497e5"),
    "consonance": ("880c869de79348d0838c9ed6f9c0d36b2a5f7d6b223701626eb973ba53aaed7d",
                   "db52bb105e38d64f842719c8d00f76171f6a66d73fc1b1110e54514461250b55"),
    "pi02": ("7d544d9342caa3ed2f71e5c589dfdf804ab372b22a73779380bf14f45ae79463",
             "be76107408817eee1b92183ea476b03a867477b70bd6c38c4aab76e86db7abc0"),
    "wilker": ("89d302e8f89000ce38561a22a361e3ab4103e4ad2e9ab85826e973ad3366e78f",
               "0eae422596cd4662efe3ae2f21358f717cf435387f742a975b8cbfc19a965fe8"),
    "counterexamples": ("6e8d4f5738df4326b3ad2f89a2a9fbad170ad0804161f72584f6c6998c90aef9",
                        "0dc48775267470be9e305cffa2446c81178ba69880ca60b1308d93078491080f"),
}

# the same pair for the consonance suite at --max-points 5, where O(X) and
# K(X) of the 5-point antichain have 7,581 opens each
CONSONANCE_AT_5 = ("200ce471105f932edb8ca958a57c15d41e6e58ed0971b5a73caec29bb3da8680",
                   "0970bb629e29752169ed6c27b21ea390bf2590f80c58065bb5c74fc8a384b6f7")

# and for the wilker suite at --max-points 5: 108,614 covered triples over
# 87 subjects, 56,642 of them decided (one per unordered cover pair and
# K), where default scope reaches 9,048 and decides 4,844
WILKER_AT_5 = ("8c83397dc3c0750d0b836cde8766b02367999ef550b7d8c3386e80c66823261e",
               "90117cb677f2071a6a01f450d18fc80aadb5210e2cf85aa934ba8e75934e802b")

# and for the pi02 suite at --max-points 5, where A(X) and K(X) of the
# 5-point antichain have 32 points each and its lens check weighs 1,024
# candidate pairs (default scope stops at 3 points)
PI02_AT_5 = ("9d3af1a2ae88b2745f33b8cf1373636cfdcee39a989244283bd04bb4438fa92f",
             "bef18313ef6416e70a44aa5561342edf4166f16cc1a0afb69f291e8b6016e1f4")

# and for the homeo and monad suites at --max-points 5: both read
# sigma/tau, homeo as a canonical pair, monad in the distributive law
HOMEO_AT_5 = ("2043ac6d0be1af3cbbb16756b6349b20d1a7629b6005d941e94bc342945f99fc",
              "3fbfc6247e917b634bdbdf53fc06756c40704f8ed443398c5cfbdb7c9591efbc")
MONAD_AT_5 = ("487550763f9eeb5b6ef278b06aa57464b61bc1ffeaae14c60613983f3c6c6eea",
              "e6f8eb10dccff63d747f7833fbb87fe60bd17f143538963a932597fe277c311c")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def builds(monkeypatch):
    """(label, base fingerprint) of every construction made while the
    test runs, through the one function every builder leaves by."""
    made = []
    finish = powerspaces._finish

    def finish_and_record(*args, **kwargs):
        cs = finish(*args, **kwargs)
        made.append((cs.label, cs.base.fingerprint))
        return cs

    monkeypatch.setattr(powerspaces, "_finish", finish_and_record)
    return made


def test_suite_names():
    assert set(SUITES) == {"homeo", "monad", "consonance", "pi02", "wilker", "counterexamples"}


def test_homeo_report_shape():
    report = run_suite("homeo", max_points=3)
    assert len([s for s in report.subjects if "->" not in s]) == 8
    assert report.failed == 0
    lines = report.lines()
    assert lines[-1] == f"suite=homeo subjects={len(report.subjects)} checks={len(report.records)} failed=0"


def test_reports_are_deterministic_modulo_timings():
    a = run_suite("consonance", max_points=2).to_json()
    b = run_suite("consonance", max_points=2).to_json()
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_parallel_jobs_match_serial():
    for suite in SUITES:
        serial = run_suite(suite, max_points=2, jobs=1).to_json(include_timings=False)
        parallel = run_suite(suite, max_points=2, jobs=2).to_json(include_timings=False)
        assert serial == parallel, suite


def test_parallel_all_matches_serial():
    # each pool worker keeps its own towers, the parent those of the
    # naturality records and of the one-subject suites
    serial = run_suite("all", max_points=2, jobs=1).to_json(include_timings=False)
    assert run_suite("all", max_points=2, jobs=2).to_json(include_timings=False) == serial


def test_importing_the_package_loads_no_process_pool():
    # only jobs > 1 imports the pool; a fresh interpreter importing the
    # package, the suites and the CLI loads neither module it pulls in
    code = (
        "import sys, powerspace, powerspace.suites, powerspace.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "[]\n"


def test_run_all_merges(monkeypatch):
    # the benchmark's traced verify-all patches suites.run_suite the same
    # way and reads each suite's part from the call run_suite("all") makes
    parts = []
    run_one = suites.run_suite

    def recording(suite, *args, **kwargs):
        report = run_one(suite, *args, **kwargs)
        if suite != "all":
            parts.append(report)
        return report

    monkeypatch.setattr(suites, "run_suite", recording)
    report = run_suite("all", max_points=1)
    assert [part.suite for part in parts] == list(SUITES)
    assert report.records == [r for part in parts for r in part.records]
    assert report.subjects == sorted({s for part in parts for s in part.subjects})
    assert report.suite == "all"
    assert report.failed == 0


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_include_empty_flag():
    with_empty = run_suite("monad", max_points=1, include_empty=True)
    without = run_suite("monad", max_points=1, include_empty=False)
    assert len(with_empty.subjects) == len(without.subjects) + 1


@pytest.mark.parametrize("suite", SUITES)
def test_golden_report_bodies(suite):
    report = run_suite(suite)
    body = json.dumps(report.to_json(include_timings=False), sort_keys=True)
    assert (_sha256(body), _sha256("\n".join(report.lines()))) == GOLDEN[suite]


def test_golden_consonance_body_at_five_points():
    report = run_suite("consonance", max_points=5)
    body = json.dumps(report.to_json(include_timings=False), sort_keys=True)
    assert (_sha256(body), _sha256("\n".join(report.lines()))) == CONSONANCE_AT_5


def test_golden_wilker_body_at_five_points():
    report = run_suite("wilker", max_points=5)
    body = json.dumps(report.to_json(include_timings=False), sort_keys=True)
    assert (_sha256(body), _sha256("\n".join(report.lines()))) == WILKER_AT_5


def test_golden_pi02_body_at_five_points():
    report = run_suite("pi02", max_points=5)
    body = json.dumps(report.to_json(include_timings=False), sort_keys=True)
    assert (_sha256(body), _sha256("\n".join(report.lines()))) == PI02_AT_5


@pytest.mark.parametrize("suite, pins", [("homeo", HOMEO_AT_5), ("monad", MONAD_AT_5)])
def test_golden_bodies_at_five_points(suite, pins):
    report = run_suite(suite, max_points=5)
    body = json.dumps(report.to_json(include_timings=False), sort_keys=True)
    assert (_sha256(body), _sha256("\n".join(report.lines()))) == pins


@pytest.mark.parametrize("job", [monad_space_job, consonance_space_job])
def test_jobs_build_each_construction_once(job, builds):
    for space in enumerate_spaces(3):
        builds.clear()
        _timed("subject", job(Powers(space, DEFAULT_LIMITS)))
        twice = [key for key, count in Counter(builds).items() if count > 1]
        assert not twice, (space, twice)


@pytest.mark.parametrize("suite, most", [("homeo", 240), ("monad", 80), ("consonance", 192), ("pi02", 38)])
def test_default_scope_build_counts(suite, most, builds):
    run_suite(suite)
    assert len(builds) <= most


def test_tower_tables_read_a_and_k_only(builds):
    """The four modal tables equal their definitions over O(X)'s points,
    and reading all four on a fresh tower builds A(X) and K(X) alone."""
    for sp in labelled_spaces(3):
        builds.clear()
        pw = Powers(sp)
        tables = pw.diamonds, pw.boxes, pw.triangles, pw.nablas
        assert sorted(label for label, _ in builds) == ["A(X)", "K(X)"], sp
        assert tables == (
            tuple(map(pw.A.diamond, pw.O.extents)),
            tuple(map(pw.K.box, pw.O.extents)),
            tuple(map(pw.O.diamond, pw.A.extents)),
            tuple(map(pw.O.containing, pw.K.extents)),
        ), sp


def test_all_builds_each_construction_once(builds):
    # every suite, the naturality records and pi02's subspaces read one
    # tower per subject for the whole call
    run_suite("all")
    assert (len(builds), len(builds) - len(set(builds))) == (306, 0)


def test_no_tower_outlives_a_call(builds):
    # a cap exit drops the call's towers too: the 1-point space's, built
    # before A(K(X)) refused, would otherwise serve the next call
    with pytest.raises(PowerspaceTooLarge, match=r"^n1-526084feaa6a: A\(K\(X\)\) would have more than 2 points$"):
        run_suite("homeo", 2, limits=DEFAULT_LIMITS.with_cap(2))
    builds.clear()
    run_suite("monad")
    assert len(builds) == 80


def test_consonance_job_runs_each_checker_once_per_tower(monkeypatch):
    # each checker builds one Verdict per run; the job runs them on three
    # towers, over X, O(X) and K(X)
    runs = Counter()

    def counting(*args, **kwargs):
        runs[sys._getframe(1).f_code.co_name] += 1
        return Verdict(*args, **kwargs)

    monkeypatch.setattr(checkers, "Verdict", counting)
    for space in enumerate_spaces(3):
        runs.clear()
        _timed("subject", consonance_space_job(Powers(space, DEFAULT_LIMITS)))
        assert {name: runs[name] for name in ("is_consonant", "is_co_consonant")} == {
            "is_consonant": 3, "is_co_consonant": 3}, space


def test_decompose_all_triples_fails_on_an_unsaturated_split(monkeypatch):
    # on the Sierpinski space {bot} is not saturated, yet K1 = {top} and
    # K2 = {bot} cover K = {bot,top} under U1 = {top} and U2 = {bot,top};
    # the walk for that triple is entered at level 1, where the greedy
    # cover chose {top} and {bot,top}, {top} alive on the U1 side and
    # both on the U2 side, a state no earlier triple walks.  U1 comes
    # before U2 among the opens, so the sweep decides this triple and
    # never walks its mirror
    x = sierpinski()
    bot, top, full = 0b01, 0b10, 0b11
    walk = approx._walk

    def unsaturated(w, k, f, g, memo=None):
        *trace, split = walk(w, k, f, g, memo)
        level_1 = (full, 1 << w.index[top], 1 << w.index[top] | 1 << w.index[full])
        return (*trace, (top, bot)) if (k, f, g) == level_1 else (*trace, split)

    monkeypatch.setattr(approx, "_walk", unsaturated)
    [relation_valid, triples] = _space_job("wilker", x, DEFAULT_LIMITS)
    assert relation_valid.passed
    assert triples.name == "decompose_all_triples" and not triples.passed
    assert triples.witness == {"K": PtSet(x, full), "U1": PtSet(x, top), "U2": PtSet(x, full)}


def test_decompose_all_triples_steps_each_state_once(monkeypatch):
    # 256 distinct walk states on antichain(4), each walk entered at
    # level 1
    steps = []
    step = approx._step

    def counting(w, k, f, g):
        steps.append((k, f, g))
        return step(w, k, f, g)

    monkeypatch.setattr(approx, "_step", counting)
    [relation_valid, triples] = _space_job("wilker", antichain(4), DEFAULT_LIMITS)
    assert relation_valid.passed and triples.passed
    assert len(steps) == len(set(steps)) <= 256
