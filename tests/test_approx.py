import random
from itertools import product

import pytest

from powerspace.approx import (
    ApproxRelation,
    ApproxScheme,
    PathDescriptor,
    canonical_approx_relation,
    require_valid_relation,
    scheme_limit,
    validate_approx_relation,
    wilker_decompose,
    wilker_decomposition_trace,
    wilker_split,
)
from powerspace.config import DEFAULT_LIMITS
from powerspace.core import PtSet, antichain, chain, empty_space, enumerate_spaces, set_label, sierpinski
from powerspace.errors import EmptySpace, NoUniquePoint, PowerspaceTooLarge, PreconditionViolated

from oracles import literal_approx_axioms, literal_wilker_walk

S = sierpinski()
D2 = antichain(2, names=("a", "b"))


def test_canonical_relation_examples():
    r = canonical_approx_relation(S)
    assert (0b10, 0b11) in r.pairs and (0b11, 0b11) in r.pairs
    assert (0b11, 0b10) not in r.pairs
    rd = canonical_approx_relation(D2)
    assert rd.pairs == frozenset({(0b01, 0b01), (0b01, 0b11), (0b10, 0b10), (0b10, 0b11)})


def test_canonical_relation_validates_up_to_five_points():
    for sp in enumerate_spaces(5):
        if sp.n == 0:
            continue
        assert validate_approx_relation(canonical_approx_relation(sp)).holds


def test_canonical_refuses_empty_space():
    with pytest.raises(EmptySpace):
        canonical_approx_relation(empty_space())


def test_inclusion_relation_fails_limit_axiom():
    incl = ApproxRelation(D2, frozenset((u, v) for u in D2.opens() for v in D2.opens() if not (u & ~v)))
    v = validate_approx_relation(incl)
    assert not v.holds and v.witness["axiom"] == 4


def test_empty_relation_fails_covering_axiom():
    one = chain(1)
    v = validate_approx_relation(ApproxRelation(one, frozenset()))
    assert not v.holds and v.witness["axiom"] == 3


def test_subset_axiom_violation():
    bad = ApproxRelation(S, frozenset({(0b11, 0b10)}))
    v = validate_approx_relation(bad)
    assert not v.holds and v.witness["axiom"] == 1


# {bot} is not open in the Sierpinski space
OFF_FAMILY = ApproxRelation(S, canonical_approx_relation(S).pairs | {(0b01, 0b11)})


def test_off_family_pair_fails_relation_axiom():
    v = validate_approx_relation(OFF_FAMILY)
    assert not v.holds
    assert v.witness == {"axiom": 0, "pair": ("{bot}", "{bot,top}"), "failure": "relation off the open family"}


C3 = chain(3)
# up(c1) = {c1,c2} refines itself but no longer the whole space, which
# {c2} and the whole space still cover; {c1,c2} has a second refiner {c2}
MISSING_UPWARD = ApproxRelation(C3, canonical_approx_relation(C3).pairs - {(0b110, 0b111)})


def test_missing_upward_pair_fails_upward_axiom():
    v = validate_approx_relation(MISSING_UPWARD)
    assert not v.holds
    assert v.witness == {"axiom": 2, "instance": ("{c1,c2}", "{c1,c2}", "{c0,c1,c2}")}


def test_single_axiom_witnesses_match_literal_oracle():
    """One relation failing only axiom k, for k = 0..4: the table reading
    names the same instance as the pair-set reading."""
    relations = [
        OFF_FAMILY,
        ApproxRelation(S, frozenset({(0b11, 0b10)})),
        MISSING_UPWARD,
        ApproxRelation(chain(1), frozenset()),
        ApproxRelation(D2, frozenset((u, v) for u in D2.opens() for v in D2.opens() if not (u & ~v))),
    ]
    for axiom, r in enumerate(relations):
        want = literal_approx_axioms(r)
        assert not want.holds and want.witness["axiom"] == axiom
        assert validate_approx_relation(r).witness == want.witness


def test_axioms_match_literal_oracle():
    """holds agrees with the pair-set reading on every labelled space of at
    most 3 points, under random pairs of arbitrary masks, canonical
    relations with one or two pairs added or removed, and random sets of
    subset pairs on the opens; the oracle names every axiom on the way."""
    rng = random.Random(16)
    named = {}
    relations = 0
    for sp in enumerate_spaces(3, up_to_iso=False):
        opens = sp.opens()
        masks = range(sp.full_mask + 1)
        subset_pairs = [(u, v) for u in opens for v in opens if not (u & ~v)]
        drawn = [frozenset((rng.choice(masks), rng.choice(masks)) for _ in range(rng.randint(1, 4))) for _ in range(30)]
        drawn += [frozenset(p for p in subset_pairs if rng.random() < 0.5) for _ in range(30)]
        if sp.n:
            canonical = sorted(canonical_approx_relation(sp).pairs)
            for _ in range(30):
                k = rng.randint(1, min(2, len(canonical)))
                if rng.random() < 0.5:
                    drawn.append(frozenset(canonical) - set(rng.sample(canonical, k)))
                else:
                    drawn.append(frozenset(canonical) | {(rng.choice(opens), rng.choice(opens)) for _ in range(k)})
        for pairs in drawn:
            want = literal_approx_axioms(ApproxRelation(sp, pairs))
            assert validate_approx_relation(ApproxRelation(sp, pairs)).holds == want.holds, (sp, sorted(pairs))
            key = "holds" if want.holds else want.witness["axiom"]
            named[key] = named.get(key, 0) + 1
            relations += 1
    assert relations >= 2000
    assert set(named) == {"holds", 0, 1, 2, 3, 4}, named


def test_decompose_forced_example():
    r = canonical_approx_relation(D2)
    k1, k2 = wilker_decompose(D2, r, PtSet(D2, 0b11), PtSet(D2, 0b01), PtSet(D2, 0b10))
    assert (k1.mask, k2.mask) == (0b01, 0b10)


def test_decompose_sierpinski_overlap():
    r = canonical_approx_relation(S)
    k1, k2 = wilker_decompose(S, r, PtSet(S, 0b11), PtSet(S, 0b11), PtSet(S, 0b10))
    assert not (k1.mask & ~0b11) and not (k2.mask & ~0b10)
    assert (k1.mask | k2.mask) & 0b11 == 0b11


def test_decompose_is_deterministic():
    r = canonical_approx_relation(S)
    args = (S, r, PtSet(S, 0b11), PtSet(S, 0b11), PtSet(S, 0b10))
    assert wilker_decompose(*args) == wilker_decompose(*args)


def test_decompose_preconditions():
    r = canonical_approx_relation(S)
    with pytest.raises(PreconditionViolated):
        wilker_decompose(S, r, PtSet(S, 0b01), PtSet(S, 0b10), PtSet(S, 0b10))  # not saturated
    with pytest.raises(PreconditionViolated):
        wilker_decompose(S, r, PtSet(S, 0b11), PtSet(S, 0b10), PtSet(S, 0b10))  # not covered
    with pytest.raises(PreconditionViolated):
        wilker_decomposition_trace(S, r, PtSet(S, 0b10), PtSet(S, 0b01), PtSet(S, 0b10))  # {bot} is not open


def test_decompose_rejects_an_invalid_relation_on_every_call():
    bad = ApproxRelation(S, frozenset({(0b11, 0b10)}))  # fails the subset axiom
    assert validate_approx_relation(bad) is validate_approx_relation(bad)  # validated once
    for _ in range(2):
        with pytest.raises(PreconditionViolated):
            wilker_decompose(S, bad, PtSet(S, 0b10), PtSet(S, 0b10), PtSet(S, 0b10))


def test_decompose_all_triples_with_oracle():
    def oracle(sp, k, u1, u2):
        sats = sp.opens()
        return any(
            not (k1 & ~u1) and not (k2 & ~u2) and not (k & ~(k1 | k2))
            for k1 in sats
            for k2 in sats
        )

    for sp in enumerate_spaces(3):
        if sp.n == 0:
            continue
        r = canonical_approx_relation(sp)
        opens = sp.opens()
        for u1 in opens:
            for u2 in opens:
                for k in opens:
                    if k & ~(u1 | u2):
                        continue
                    k1, k2 = wilker_decompose(sp, r, PtSet(sp, k), PtSet(sp, u1), PtSet(sp, u2))
                    assert not (k1.mask & ~u1)
                    assert not (k2.mask & ~u2)
                    assert not (k & ~(k1.mask | k2.mask))
                    assert oracle(sp, k, u1, u2)


def _library_trace(x, r, k, u1, u2):
    return wilker_decomposition_trace(x, r, PtSet(x, k), PtSet(x, u1), PtSet(x, u2))


def _walk_outcome(walk, x, r, k, u1, u2):
    try:
        return walk(x, r, k, u1, u2)
    except PreconditionViolated:
        return "no cover"


def test_trace_matches_reference_walk():
    """Every space of at most 3 points (all labelings), every triple of
    opens, under the canonical relation and under random sets of subset
    pairs, open or not; the random ones are mostly invalid relations,
    whose walks may find no cover."""
    rng = random.Random(5)
    outcomes = {"covered": 0, "no cover": 0}
    for sp in enumerate_spaces(3, up_to_iso=False):
        opens = sp.opens()
        masks = range(sp.full_mask + 1)
        subset_pairs = sorted((u, v) for u in masks for v in masks if not (u & ~v))
        relations = [ApproxRelation(sp, frozenset(p for p in subset_pairs if rng.random() < 0.5)) for _ in range(2)]
        if sp.n:
            relations.append(canonical_approx_relation(sp))
        for r in relations:
            for k in opens:
                for u1 in opens:
                    for u2 in opens:
                        expected = _walk_outcome(literal_wilker_walk, sp, r, k, u1, u2)
                        assert _walk_outcome(_library_trace, sp, r, k, u1, u2) == expected
                        outcomes["no cover" if expected == "no cover" else "covered"] += 1
    assert outcomes["covered"] > 1000 and outcomes["no cover"] > 1000


def test_memoised_split_matches_literal_walk():
    """wilker_split, one relation and so one memo per space shared by all
    its triples in the suite's order, against the literal walk: every
    labelled space of at most 3 points, then the 24 spaces of at most 4
    points up to isomorphism, all in one process, so that a memo keyed
    without K or shared across spaces gives a wrong split."""
    spaces = [sp for sp in (*enumerate_spaces(3, up_to_iso=False), *enumerate_spaces(4)) if sp.n]
    assert len(spaces) == 23 + 24
    for sp in spaces:
        r = canonical_approx_relation(sp)
        require_valid_relation(r)
        for u1, u2, k in product(sp.opens(), repeat=3):
            if k & ~(u1 | u2):
                continue
            want = literal_wilker_walk(sp, r, k, u1, u2)
            k1, k2 = wilker_split(r, k, u1, u2)
            assert (set_label(sp.names, k1), set_label(sp.names, k2)) == (want["k1"], want["k2"]), (sp, k, u1, u2)


def test_kept_verdict_and_walk_do_not_pass_a_smaller_cap():
    # the relation keeps one verdict and one walk table for every cap;
    # each call decides its own cap, here below the 8 opens of antichain(3)
    x = antichain(3)
    r = canonical_approx_relation(x)
    full = x.full_mask
    assert validate_approx_relation(r, DEFAULT_LIMITS).holds
    assert wilker_split(r, full, full, full, DEFAULT_LIMITS) == (full, full)
    small = DEFAULT_LIMITS.with_cap(7)
    with pytest.raises(PowerspaceTooLarge):
        validate_approx_relation(r, small)
    with pytest.raises(PowerspaceTooLarge):
        wilker_split(r, full, full, full, small)


def test_trace_export():
    r = canonical_approx_relation(S)
    trace = wilker_decomposition_trace(S, r, PtSet(S, 0b11), PtSet(S, 0b11), PtSet(S, 0b10))
    assert trace["k1"] == "{bot,top}"
    assert trace["cycle_start"] < len(trace["levels"])
    import json

    json.dumps(trace)  # exportable


def test_scheme_limits():
    r = canonical_approx_relation(S)
    constant_top = ApproxScheme(r, ((), (0,)), (0b10, 0b10))
    assert S.names[scheme_limit(constant_top, PathDescriptor((), (0,)))] == "top"
    stabilize_full = ApproxScheme(r, ((), (0,)), (0b11, 0b11))
    assert S.names[scheme_limit(stabilize_full, PathDescriptor((), (0,)))] == "bot"


def test_scheme_limit_agrees_on_descriptor_quotient():
    # descriptors reaching the same deepest node give the same point
    r = canonical_approx_relation(S)
    sch = ApproxScheme(r, ((), (0,), (0, 1)), (0b11, 0b11, 0b10))
    a = scheme_limit(sch, PathDescriptor((0, 1), (5,)))
    b = scheme_limit(sch, PathDescriptor((0,), (1,)))
    assert a == b == 1


def test_scheme_rejections():
    r = canonical_approx_relation(S)
    with pytest.raises(PreconditionViolated):
        ApproxScheme(r, ((), (0,)), (0b10, 0b11))  # child does not refine parent
    with pytest.raises(PreconditionViolated):
        ApproxScheme(r, (((0,),) + ((),))[:1], (0b10,))  # no root
    with pytest.raises(ValueError):
        PathDescriptor((), ())


def test_scheme_limit_surfaces_bad_relation():
    # a relation passing nothing but claiming a self-loop on a non-minimal open
    bad = ApproxRelation(D2, frozenset({(0b11, 0b11)}))
    sch = ApproxScheme(bad, ((),), (0b11,))
    with pytest.raises(NoUniquePoint):
        scheme_limit(sch, PathDescriptor((), (0,)))
