import random

from hypothesis import given, settings, strategies as st

from powerspace.omega import (
    COUNTEREXAMPLES,
    EMPTY,
    FULL_WITH_TOP,
    NATURALS,
    OMEGA_DISCRETE,
    OMEGA_TOP,
    CofinSet,
    cofinite,
    finite,
    not_finitely_saturated_witness,
    scott_but_not_vietoris_witness,
    verify_lower_powerspace_not_coconsonant,
    verify_scott_open_not_vietoris_open,
    verify_vietoris_open_not_weak_open,
    vietoris_but_not_weak_witness,
)

UNIVERSE = 32

cofinsets = st.builds(
    CofinSet,
    st.booleans(),
    st.frozensets(st.integers(0, UNIVERSE - 2), max_size=5),
    st.booleans(),
)


@given(cofinsets)
@settings(max_examples=100)
def test_complement_is_an_involution(a):
    assert a.complement().complement() == a


@given(cofinsets, cofinsets)
@settings(max_examples=100)
def test_union_against_truncated_oracle(a, b):
    ra, ta = a.realize(UNIVERSE)
    rb, tb = b.realize(UNIVERSE)
    ru, tu = a.union(b).realize(UNIVERSE)
    assert ru == ra | rb and tu == (ta or tb)


@given(cofinsets, cofinsets)
@settings(max_examples=100)
def test_intersection_against_truncated_oracle(a, b):
    ra, ta = a.realize(UNIVERSE)
    rb, tb = b.realize(UNIVERSE)
    ri, ti = a.intersection(b).realize(UNIVERSE)
    assert ri == ra & rb and ti == (ta and tb)


@given(cofinsets)
@settings(max_examples=100)
def test_complement_against_truncated_oracle(a):
    ra, ta = a.realize(UNIVERSE)
    rc, tc = a.complement().realize(UNIVERSE)
    assert rc == frozenset(range(UNIVERSE)) - ra and tc == (not ta)


@given(cofinsets, cofinsets)
@settings(max_examples=100)
def test_subset_against_truncated_oracle(a, b):
    ra, ta = a.realize(UNIVERSE)
    rb, tb = b.realize(UNIVERSE)
    assert a.is_subset(b) == (ra <= rb and (not ta or tb))


def test_mode_arithmetic():
    f1, f2 = finite({1, 2}), finite({2, 3})
    assert f1.union(f2).mode == "finite"
    assert f1.union(f2).support == frozenset({1, 2, 3})
    c1, c2 = cofinite({1, 2}), cofinite({2, 3})
    assert c1.intersection(c2).mode == "cofinite"
    assert c1.intersection(c2).support == frozenset({1, 2, 3})
    assert c1.union(c2).support == frozenset({2})
    mixed = f1.union(c1)
    assert mixed.mode == "cofinite" and mixed.support == frozenset()


def test_space_predicates():
    assert OMEGA_TOP.is_open(EMPTY)
    assert OMEGA_TOP.is_open(cofinite({4, 7}))
    assert not OMEGA_TOP.is_open(cofinite({4}, top=False))
    assert not OMEGA_TOP.is_open(finite({1}, top=True))
    assert OMEGA_TOP.is_closed(finite({0, 5}))
    assert OMEGA_TOP.is_closed(FULL_WITH_TOP)
    assert not OMEGA_TOP.is_closed(NATURALS)
    assert OMEGA_DISCRETE.is_open(finite({3}))
    assert not OMEGA_DISCRETE.is_open(finite({3}, top=True))


def test_witness_rule_instances():
    assert scott_but_not_vietoris_witness([frozenset({0, 1})]) == 2
    assert vietoris_but_not_weak_witness([frozenset({3})]) == 4
    assert not_finitely_saturated_witness([frozenset({0}), frozenset({1, 2})]) == 3
    assert not_finitely_saturated_witness([]) == 0


def test_witness_rules_against_truncated_model():
    rng = random.Random(7)
    for _ in range(100):
        fams = [frozenset(rng.randrange(30) for _ in range(rng.randrange(3))) for _ in range(rng.randrange(4))]
        n = scott_but_not_vietoris_witness(fams)
        assert n < UNIVERSE
        singleton, _ = finite([n]).realize(UNIVERSE)
        for f in fams:
            basic, _ = cofinite(f).realize(UNIVERSE)
            assert singleton & basic  # the singleton meets every subbasic open
        assert len(singleton) < 2

        compacts = [s for s in fams if s]
        m = vietoris_but_not_weak_witness(compacts)
        sing, _ = finite([m]).realize(UNIVERSE)
        for ksup in compacts:
            kreal, _ = finite(ksup).realize(UNIVERSE)
            assert not (kreal <= sing)


def test_counterexample_verdicts():
    for fn in COUNTEREXAMPLES.values():
        v = fn(samples=100, seed=0)
        assert v.holds
        assert v.info["instances"] == 100


def test_counterexample_determinism():
    a = verify_scott_open_not_vietoris_open(samples=50, seed=3)
    b = verify_scott_open_not_vietoris_open(samples=50, seed=3)
    assert a.info == b.info


def test_coconsonance_verdict_records_compactness_provenance():
    v = verify_lower_powerspace_not_coconsonant(samples=10, seed=0)
    assert "compactness" in v.info


def test_vietoris_not_weak_small_case():
    # the empty compact lies in the weak subbasic of K exactly when K is non-empty
    assert EMPTY.is_subset(EMPTY)
    assert not finite({3}).is_subset(EMPTY)
    v = verify_vietoris_open_not_weak_open(samples=20, seed=1)
    assert v.holds
