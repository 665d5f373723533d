import json
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from powerspace import canonical, checkers, pi02, powerspaces, suites
from powerspace.canonical import (
    PAIR_BUILDERS,
    ModalGenerator,
    Powers,
    alpha_beta,
    check_distributive_law,
    check_naturality,
    check_preimage_identities,
    gamma_delta,
    modal_set,
    naturality_squares,
    phi_psi,
    sigma_tau,
    verify_pair,
)
from powerspace.config import DEFAULT_LIMITS, Limits
from powerspace.core import (
    FiniteSpace,
    PtSet,
    SpaceMap,
    antichain,
    bits,
    check_continuous,
    empty_space,
    enumerate_spaces,
    generating_maps,
    identity_map,
    iter_continuous_maps,
    set_label,
    sierpinski,
)
from powerspace.errors import NotContinuous, PowerspaceTooLarge, ShapeMismatch

from oracles import labelled_spaces, literal_naturality_records, literal_naturality_square, literal_preimage_identities

S = sierpinski()
D2 = antichain(2, names=("a", "b"))


def test_all_pairs_on_small_spaces():
    for sp in enumerate_spaces(3):
        pw = Powers(sp)
        for builder in PAIR_BUILDERS.values():
            assert verify_pair(builder(pw)).holds


def _literal_discontinuity(f):
    """First codomain point whose up-set has a preimage that is not an
    upper set, from the pairwise definitions; None when f is continuous."""
    dom, cod = f.domain, f.codomain
    for y in range(cod.n):
        pre = [i for i in range(dom.n) if cod.leq(y, f(i))]
        if any(dom.leq(i, j) and j not in pre for i in pre for j in range(dom.n)):
            return PtSet(cod, cod.up[y]).label()
    return None


@pytest.mark.parametrize("name", list(PAIR_BUILDERS))
def test_corrupted_pair_fails_with_literal_witness(name):
    pw = Powers(antichain(3))
    pair = PAIR_BUILDERS[name](pw)
    fwd, bwd = pair.forward, pair.backward
    # one wrong entry: forward is no longer injective
    wrong = (fwd.table[0] + 1) % fwd.codomain.n
    bad = SpaceMap(fwd.domain, fwd.codomain, (wrong,) + fwd.table[1:])
    assert check_continuous(bad).holds == (_literal_discontinuity(bad) is None)
    assert verify_pair(replace(pair, forward=bad)).witness["failure"] == "backward(forward) is not the identity"
    # two points a < b trade images: still mutually inverse, but a < b now
    # maps to forward(b) > forward(a)
    dom = fwd.domain
    a, b = next((a, b) for a in range(dom.n) for b in range(dom.n) if a != b and dom.leq(a, b))
    table, back = list(fwd.table), list(bwd.table)
    table[a], table[b] = table[b], table[a]
    back[table[a]], back[table[b]] = a, b
    swapped = replace(pair, forward=SpaceMap(dom, fwd.codomain, tuple(table)),
                      backward=SpaceMap(bwd.domain, dom, tuple(back)))
    v = verify_pair(swapped)
    expected = _literal_discontinuity(swapped.forward)
    assert expected is not None
    assert v.witness == {"pair": name, "failure": "forward not continuous", "open": expected}


def test_pair_builders_keep_one_pair_per_powers():
    pw = Powers(D2)
    for builder in PAIR_BUILDERS.values():
        pair = builder(pw)
        assert builder(pw) is pair
    assert set(pw.pairs) == {"sigma_tau", "phi_psi", "alpha_beta", "gamma_delta"}


# the sixteen checks that take a tower, each as a function of the tower alone
TOWER_CHECKS = {
    **{f.__name__: f for f in (sigma_tau, phi_psi, alpha_beta, gamma_delta, check_preimage_identities,
                                check_distributive_law)},
    **{f.__name__: f for f in (checkers.is_consonant, checkers.is_co_consonant, checkers.is_wilker,
                                checkers.consonance_equivalence, checkers.strong_compactness_implications,
                                pi02.lens_pi02, pi02.eta_image_characterizations)},
    **{f.__name__: partial(f, "A") for f in (powerspaces.monad_laws, powerspaces.monad_preimage_identities,
                                              powerspaces.algebra_laws)},
}
# the checks the benchmark harness calls as check(pw, limits)
HARNESS_CHECKS = [*PAIR_BUILDERS.values(), check_preimage_identities]


@pytest.mark.parametrize("check", list(TOWER_CHECKS.values()), ids=list(TOWER_CHECKS))
def test_checks_read_their_caps_off_the_tower(check):
    # O(X) of the 2-point antichain has 4 points, and every check builds
    # at least one construction of that size
    with pytest.raises(PowerspaceTooLarge):
        check(Powers(antichain(2), Limits(max_construction_points=1)))


@pytest.mark.parametrize("check", HARNESS_CHECKS, ids=lambda f: f.__name__)
def test_harness_checks_take_only_the_towers_own_limits(check):
    pw = Powers(D2, DEFAULT_LIMITS.with_cap(100))
    assert check(pw, pw.limits) == check(pw) == check(pw, Limits(max_construction_points=100))
    for foreign in (DEFAULT_LIMITS, pw.limits.with_cap(99), replace(pw.limits, seed=1)):
        with pytest.raises(ValueError, match="is not the tower's"):
            check(pw, foreign)


def test_five_point_subject():
    """The 4-point antichain with p4 below p0, whose iterated constructions
    have 887 points each, more than any other subject in these tests.  The
    checks are called as the benchmark's homeo-large workload calls them,
    with the tower's limits passed again, and the sizes, instances and
    verdicts are the outputs that workload pins, read from its expected
    outputs, never written."""
    expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    pins = json.loads(expected.read_text())["homeo-large"]["outputs"]
    limits = DEFAULT_LIMITS
    pw = Powers(FiniteSpace(("p0", "p1", "p2", "p3", "p4"), up=(1, 2, 4, 8, 17)), limits)
    assert {name: getattr(pw, name).space.n for name in pins["sizes"]} == pins["sizes"]
    verdicts = {name: verify_pair(builder(pw, limits)) for name, builder in PAIR_BUILDERS.items()}
    witnesses = {name: v.witness for name, v in verdicts.items()}
    assert {name: v.holds for name, v in verdicts.items()} == pins["verify_pair"], witnesses
    v = check_preimage_identities(pw, limits)
    assert v.holds == pins["preimage_identities"], v.witness
    assert v.info["instances"] == pins["preimage_instances"]


def test_sigma_example_on_discrete_pair():
    pw = Powers(D2)
    st_pair = sigma_tau(pw)
    gen = (1 << pw.K.point_of(0b01)) | (1 << pw.K.point_of(0b11))
    fam = pw.K.space.closure_mask(gen)  # {{a},{a,b}} is closed in the upper space
    i = pw.AK.point_of(fam)
    image = pw.KA.extents[st_pair.forward.table[i]]
    assert {pw.A.extents[j] for j in bits(image)} == {0b01, 0b11}
    assert st_pair.backward.table[st_pair.forward.table[i]] == i


def test_sigma_collapses_on_the_empty_compact():
    pw = Powers(S)
    st_pair = sigma_tau(pw)
    whole = pw.AK.point_of(pw.K.space.full_mask)
    assert pw.KA.extents[st_pair.forward.table[whole]] == 0


def test_sigma_cardinalities_on_sierpinski():
    pw = Powers(S)
    assert pw.AK.space.n == pw.KA.space.n == 4
    st_pair = sigma_tau(pw)
    assert len(set(st_pair.forward.table)) == 4


def test_phi_example_and_exhaustive_inverse():
    pw = Powers(D2)
    pp = phi_psi(pw)
    fam = pw.A.space.saturation_mask(1 << pw.A.point_of(0b01))
    i = pw.KA.point_of(fam)
    image = pw.OO.extents[pp.forward.table[i]]
    assert {pw.O.extents[j] for j in bits(image)} == {0b01, 0b11}
    assert pw.O.space.is_upper(image)  # the family is Scott open
    pwS = Powers(S)
    ppS = phi_psi(pwS)
    for i in range(pwS.KA.space.n):
        assert ppS.backward.table[ppS.forward.table[i]] == i


def test_phi_psi_cardinality_on_antichain():
    pw = Powers(antichain(3))
    assert pw.KA.space.n == pw.OO.space.n == 20


def test_alpha_example():
    pw = Powers(S)
    ab = alpha_beta(pw)
    i = pw.AO.point_of(pw.O.space.closure_mask(1 << pw.O.point_of(0b10)))
    image = pw.OK.extents[ab.forward.table[i]]
    assert image == pw.K.box(0b10)
    for j in range(pw.AO.space.n):
        assert ab.backward.table[ab.forward.table[j]] == j


def test_alpha_after_unit_is_box():
    from powerspace.powerspaces import monad_unit

    pw = Powers(S)
    ab = alpha_beta(pw)
    eta = monad_unit(pw.AO)
    u = pw.O.point_of(0b10)
    assert pw.OK.extents[ab.forward.table[eta.table[u]]] == pw.K.box(0b10)


def test_gamma_example_and_unit():
    from powerspace.powerspaces import monad_unit

    pw = Powers(S)
    gd = gamma_delta(pw)
    i = pw.KO.point_of(pw.O.space.saturation_mask(1 << pw.O.point_of(0b10)))
    image = pw.OA.extents[gd.forward.table[i]]
    assert image == pw.A.diamond(0b10)
    for j in range(pw.KO.space.n):
        assert gd.backward.table[gd.forward.table[j]] == j
    eta = monad_unit(pw.KO)
    u = pw.O.point_of(0b10)
    assert pw.OA.extents[gd.forward.table[eta.table[u]]] == pw.A.diamond(0b10)


def test_tau_preimage_inclusion_without_equality():
    # one inclusion of the tau identity holds before any consonance input
    for sp in enumerate_spaces(3):
        pw = Powers(sp)
        st_pair = sigma_tau(pw)
        for u in sp.opens():
            dia_box = pw.AK.diamond(pw.K.box(u))
            box_dia = pw.KA.box(pw.A.diamond(u))
            pre = st_pair.backward.preimage_mask(dia_box)
            assert not (pre & ~box_dia)


def test_modal_set_examples():
    pw = Powers(S)
    dia = modal_set(pw.A, ModalGenerator("diamond", PtSet(S, 0b10)))
    assert dia.mask == 1 << pw.A.point_of(0b11)
    box = modal_set(pw.K, ModalGenerator("box", PtSet(S, 0b10)))
    assert box.mask == (1 << pw.K.point_of(0)) | (1 << pw.K.point_of(0b10))
    nab = modal_set(pw.O, ModalGenerator("nabla", PtSet(S, 0b11)))
    assert nab.mask == 1 << pw.O.point_of(0b11)
    tri = modal_set(pw.O, ModalGenerator("triangle", PtSet(S, 0b01)))
    assert tri.mask == 1 << pw.O.point_of(0b11)
    boxtimes = modal_set(pw.OO, ModalGenerator("boxtimes", PtSet(S, 0b10)))
    u_idx = pw.O.point_of(0b10)
    assert all((pw.OO.extents[i] >> u_idx) & 1 for i in bits(boxtimes.mask))


def test_modal_sets_are_open():
    from powerspace.powerspaces import convex_powerspace

    for sp in enumerate_spaces(3):
        pw = Powers(sp)
        lens = convex_powerspace(sp)
        for u in sp.opens():
            arg = PtSet(sp, u)
            assert pw.A.space.is_open(modal_set(pw.A, ModalGenerator("diamond", arg)).mask)
            assert pw.K.space.is_open(modal_set(pw.K, ModalGenerator("box", arg)).mask)
            assert lens.space.is_open(modal_set(lens, ModalGenerator("diamond", arg)).mask)
            assert lens.space.is_open(modal_set(lens, ModalGenerator("box", arg)).mask)
            assert pw.OO.space.is_open(modal_set(pw.OO, ModalGenerator("boxtimes", arg)).mask)
        for k in sp.opens():  # saturated sets are the opens
            assert pw.O.space.is_open(modal_set(pw.O, ModalGenerator("nabla", PtSet(sp, k))).mask)
        for a in (sp.full_mask ^ u for u in sp.opens()):
            assert pw.O.space.is_open(modal_set(pw.O, ModalGenerator("triangle", PtSet(sp, a))).mask)


def test_modal_set_on_lens_pairs():
    from powerspace.powerspaces import convex_powerspace

    lens = convex_powerspace(S)
    dia = modal_set(lens, ModalGenerator("diamond", PtSet(S, 0b10)))
    # lenses whose closed part meets {top}: <X,{top}> and <X,X>
    assert {lens.extents[i] for i in bits(dia.mask)} == {(0b11, 0b10), (0b11, 0b11)}
    box = modal_set(lens, ModalGenerator("box", PtSet(S, 0b10)))
    assert {lens.extents[i] for i in bits(box.mask)} == {(0, 0), (0b11, 0b10)}


def test_modal_set_shape_mismatches():
    pw = Powers(S)
    with pytest.raises(ShapeMismatch):
        modal_set(pw.K, ModalGenerator("diamond", PtSet(S, 0b10)))
    with pytest.raises(ShapeMismatch):
        modal_set(pw.A, ModalGenerator("diamond", PtSet(S, 0b01)))  # not open
    with pytest.raises(ShapeMismatch):
        modal_set(pw.O, ModalGenerator("nabla", PtSet(S, 0b01)))  # not saturated
    with pytest.raises(ShapeMismatch):
        modal_set(pw.O, ModalGenerator("boxtimes", PtSet(S, 0b10)))  # single lattice


def test_preimage_identities_small():
    for sp in enumerate_spaces(3):
        v = check_preimage_identities(Powers(sp))
        assert v.holds, v.witness


def test_preimage_identities_empty_space():
    assert check_preimage_identities(Powers(empty_space())).holds


# square -> (pair builder, direction it checks, whether it runs against the arrows)
SQUARES = {
    "sigma": (sigma_tau, "forward", False),
    "tau": (sigma_tau, "backward", False),
    "phi": (phi_psi, "forward", False),
    "psi": (phi_psi, "backward", False),
    "alpha": (alpha_beta, "forward", True),
    "beta": (alpha_beta, "backward", True),
    "gamma": (gamma_delta, "forward", True),
    "delta": (gamma_delta, "backward", True),
}


# the 4-point antichain with p4 below p0, as in test_five_point_subject
SUBJECT_887 = FiniteSpace(("p0", "p1", "p2", "p3", "p4"), up=(1, 2, 4, 8, 17))


@pytest.mark.parametrize(
    "spaces",
    [labelled_spaces(3), (antichain(4),), (SUBJECT_887,)],
    ids=["labelled-up-to-3", "antichain-4", "subject-887"],
)
def test_preimage_identities_agree_with_literal_loop(spaces):
    for sp in spaces:
        pw = Powers(sp)
        v = check_preimage_identities(pw)
        assert v.holds == (literal_preimage_identities(pw) == []), sp


def _with_wrong_entry(space, which, point):
    """A tower over space whose table for the named map is wrong at point."""
    builder, direction, _ = SQUARES[which]
    pw = Powers(space)
    good = builder(pw)
    m = getattr(good, direction)
    table = list(m.table)
    table[point] = (table[point] + 1) % m.codomain.n
    pw.pairs[builder.__name__] = replace(good, **{direction: SpaceMap(m.domain, m.codomain, tuple(table))})
    return pw


@pytest.mark.parametrize("which", list(SQUARES))
def test_preimage_identities_fail_on_one_wrong_table_entry(which):
    for space in (D2, antichain(3)):
        builder, direction, _ = SQUARES[which]
        n = getattr(builder(Powers(space)), direction).domain.n
        for point in range(n):
            pw = _with_wrong_entry(space, which, point)
            v = check_preimage_identities(pw)
            literal = literal_preimage_identities(pw)
            assert not v.holds and literal
            assert (v.witness["identity"], v.witness["parameter"]) in literal


def _generator_names(fams, gens) -> set[str]:
    return {fams.space.names[fams.point_of(g)] for g in gens}


def test_wrong_alpha_fails_at_a_generator():
    # alpha is pulled back, so a wrong entry shows at some down(k): pass (a)
    pw = _with_wrong_entry(D2, "alpha", 0)
    v = check_preimage_identities(pw)
    assert v.witness["identity"] == "alpha^-1(triangle F) = diamond phi(sigma(F))"
    assert v.witness["parameter"] in _generator_names(pw.AK, pw.K.space.down)
    assert (v.witness["identity"], v.witness["parameter"]) in literal_preimage_identities(pw)


def test_wrong_sigma_off_the_generators_fails_at_its_family():
    # sigma enters alpha's identity through phi o sigma on the right; wrong
    # at a family that is neither empty nor principal, it leaves pass (a)
    # alone and fails the union of pass (b) at that family
    pw = Powers(D2)
    gens = _generator_names(pw.AK, pw.K.space.down)
    point = next(i for i, name in enumerate(pw.AK.space.names) if name not in gens and pw.AK.extents[i])
    pw = _with_wrong_entry(D2, "sigma", point)
    v = check_preimage_identities(pw)
    assert v.witness == {"identity": "alpha^-1(triangle F) = diamond phi(sigma(F))",
                         "parameter": pw.AK.space.names[point]}
    assert v.witness["parameter"] not in gens
    assert (v.witness["identity"], v.witness["parameter"]) in literal_preimage_identities(pw)


@pytest.mark.parametrize("space", [D2, antichain(3)], ids=["antichain-2", "antichain-3"])
def test_wrong_boxtimes_fails_the_per_open_identity(space):
    # pw.OO.members[U] is boxtimes U, read by the per-open loop alone; a
    # wrong entry there leaves every family identity passing and fails
    # phi's and psi's at U, phi's first
    for u_idx, u in enumerate(Powers(space).O.extents):
        pw = Powers(space)
        for builder in PAIR_BUILDERS.values():
            builder(pw)
        members = list(pw.OO.members)
        members[u_idx] ^= 1
        object.__setattr__(pw.OO, "members", tuple(members))
        label = set_label(space.names, u)
        v = check_preimage_identities(pw)
        assert v.witness == {"identity": "phi^-1(boxtimes U) = box diamond U", "parameter": label}
        assert literal_preimage_identities(pw) == [
            ("phi^-1(boxtimes U) = box diamond U", label), ("psi^-1(box diamond U) = boxtimes U", label)]


def test_preimage_identities_take_one_preimage_per_generator(monkeypatch):
    pw = Powers(SUBJECT_887)
    for builder in PAIR_BUILDERS.values():
        builder(pw)
    calls = []
    real = SpaceMap.preimage_mask

    def counting(self, mask):
        calls.append(mask)
        return real(self, mask)

    monkeypatch.setattr(SpaceMap, "preimage_mask", counting)
    v = check_preimage_identities(pw)
    n_o, n_k, n_a = (len(getattr(pw, w).extents) for w in "OKA")
    # four per open of the base, one per generator: down(k), up(U), O(X) \ down(U), up(a)
    bound = 4 * n_o + n_k + 2 * n_o + n_a
    assert bound == 192
    assert v.holds and len(calls) == v.info["generators"] <= bound
    assert v.info["instances"] == 4 * n_o + pw.AK.space.n + 2 * pw.OO.space.n + pw.KA.space.n


def test_naturality_identity_and_example():
    pw = Powers(S)
    for which in ("sigma", "tau", "phi", "psi", "alpha", "beta", "gamma", "delta"):
        from powerspace.core import identity_map

        assert check_naturality(identity_map(S), which, pw, pw).holds
    f = SpaceMap(D2, S, (0, 1))
    assert check_naturality(f, "sigma", Powers(D2), pw).holds


def test_naturality_rejects_discontinuous():
    swap = SpaceMap(S, S, (1, 0))
    with pytest.raises(NotContinuous):
        check_naturality(swap, "sigma", Powers(S), Powers(S))


def test_naturality_all_maps_two_points():
    spaces = enumerate_spaces(2)
    powers = {sp.fingerprint: Powers(sp) for sp in spaces}
    for dom in spaces:
        for cod in spaces:
            for f in iter_continuous_maps(dom, cod):
                for which in ("sigma", "tau", "phi", "psi", "alpha", "beta", "gamma", "delta"):
                    assert check_naturality(f, which, powers[dom.fingerprint], powers[cod.fingerprint]).holds


def test_naturality_matches_literal_squares_three_points():
    # the table path against validated SpaceMap lifts and composites, on
    # every continuous map between spaces of at most 3 points
    spaces = enumerate_spaces(3)
    powers = {sp.fingerprint: Powers(sp) for sp in spaces}
    squares = 0
    for dom in spaces:
        for cod in spaces:
            px, py = powers[dom.fingerprint], powers[cod.fingerprint]
            for f in iter_continuous_maps(dom, cod):
                for which, v in naturality_squares(f, px, py):
                    assert v == literal_naturality_square(f, which, px, py)
                    squares += 1
    # 476 maps between non-empty spaces and the empty map into each of the 9 spaces
    assert squares == 8 * (476 + 9)


@pytest.mark.parametrize("which", list(SQUARES))
def test_naturality_detects_one_wrong_table_entry(which):
    builder, direction, contravariant = SQUARES[which]
    px, py = Powers(D2), Powers(D2)
    good = builder(py)
    m = getattr(good, direction)
    f = identity_map(D2)

    def corrupt(table):
        py.pairs[builder.__name__] = replace(good, **{direction: SpaceMap(m.domain, m.codomain, table)})

    wrong = (m.table[0] + 1) % m.codomain.n
    corrupt((wrong,) + m.table[1:])
    # over the identity the lifts are identities, so each side of the square
    # is one of the two pairs: the one over Y is on the left unless the
    # square runs against the arrows
    sides = (m.codomain.names[m.table[0]], m.codomain.names[wrong])
    left, right = sides if contravariant else sides[::-1]
    expected = {"square": which, "point": m.domain.names[0], "left": left, "right": right}
    verdicts = dict(naturality_squares(f, px, py))
    assert list(verdicts) == list(SQUARES)
    assert [w for w, v in verdicts.items() if not v.holds] == [which]
    assert verdicts[which].witness == expected
    assert check_naturality(f, which, px, py).witness == expected
    # every single-entry corruption: the same verdicts and witnesses as the
    # literal squares, the corrupted square alone failing, at that entry
    corruptions = 0
    for point, value in enumerate(m.table):
        for wrong in range(m.codomain.n):
            if wrong == value:
                continue
            corrupt(m.table[:point] + (wrong,) + m.table[point + 1 :])
            verdicts = dict(naturality_squares(f, px, py))
            assert verdicts == {w: literal_naturality_square(f, w, px, py) for w in SQUARES}
            assert [w for w, v in verdicts.items() if not v.holds] == [which]
            assert verdicts[which].witness["point"] == m.domain.names[point]
            corruptions += 1
    assert corruptions == m.domain.n * (m.codomain.n - 1)
    # every entry wrong: both name the first point
    corrupt(tuple((v + 1) % m.codomain.n for v in m.table))
    assert check_naturality(f, which, px, py) == literal_naturality_square(f, which, px, py)
    assert check_naturality(f, which, px, py).witness["point"] == m.domain.names[0]


def test_naturality_squares_reject_discontinuous():
    with pytest.raises(NotContinuous):
        next(naturality_squares(SpaceMap(S, S, (1, 0)), Powers(S), Powers(S)))
    with pytest.raises(ValueError, match="unknown map name"):
        check_naturality(identity_map(S), "omega", Powers(S), Powers(S))
    with pytest.raises(ValueError, match="not over the ends"):
        check_naturality(identity_map(S), "sigma", Powers(D2), Powers(S))


def _naturality_generators(max_points):
    return len(generating_maps([sp for sp in enumerate_spaces(max_points) if sp.n]))


def test_naturality_lifts_each_map_once(monkeypatch):
    lifted = []

    def counting_lift_table(table, dom_ps, cod_ps):
        lifted.append(dom_ps.kind)
        return real_lift_table(table, dom_ps, cod_ps)

    real_lift_table = canonical.lift_table
    monkeypatch.setattr(canonical, "lift_table", counting_lift_table)
    records = suites._naturality_records(2, False, DEFAULT_LIMITS)
    maps = _naturality_generators(2)
    assert maps == 11
    assert all(r.passed for r in records)
    # K, A, O, AK, KA, OO, OK, AO, OA and KO of each generator, no more
    assert len(lifted) == 10 * maps
    assert sorted(lifted) == sorted("KAOAKOOAOK" * maps)


def _as_tuples(records):
    return [(r.name, r.subject, r.passed, r.witness) for r in records]


@pytest.mark.parametrize("include_empty", [False, True])
def test_naturality_records_match_the_literal_sweep(include_empty):
    records = suites._naturality_records(3, include_empty, DEFAULT_LIMITS)
    assert len(records) == (9 if include_empty else 8) ** 2
    assert _as_tuples(records) == literal_naturality_records(3, include_empty)


@pytest.mark.parametrize("max_points, which", [(2, w) for w in SQUARES] + [(3, "beta")])
def test_naturality_records_match_the_literal_sweep_on_a_corrupted_table(max_points, which, monkeypatch):
    # one wrong entry in one table, in every tower over one space (the
    # 2-chain, or the 3-antichain with its six automorphisms), the suite's
    # and the oracle's: the generator pass must see it and hand every pair
    # to the literal sweep
    builder, direction, _ = SQUARES[which]
    n = max_points
    target = next(sp for sp in enumerate_spaces(n) if sp.n == n and len(sp.covers()) == (1 if n == 2 else 0))
    real_init = Powers.__init__

    def corrupting_init(self, base, limits=DEFAULT_LIMITS):
        real_init(self, base, limits)
        if base == target:
            good = builder(self)
            m = getattr(good, direction)
            table = ((m.table[0] + 1) % m.codomain.n,) + m.table[1:]
            self.pairs[builder.__name__] = replace(good, **{direction: SpaceMap(m.domain, m.codomain, table)})

    monkeypatch.setattr(Powers, "__init__", corrupting_init)
    records = suites._naturality_records(n, False, DEFAULT_LIMITS)
    assert _as_tuples(records) == literal_naturality_records(n, False)
    assert not all(r.passed for r in records)


def test_naturality_names_the_pair_of_spaces_on_a_cap_hit():
    # A(K(X)) of the one-point space has 3 points, one over the cap
    with pytest.raises(PowerspaceTooLarge) as hit:
        suites._naturality_records(2, False, DEFAULT_LIMITS.with_cap(2))
    assert str(hit.value) == "n1-526084feaa6a->n1-526084feaa6a: A(K(X)) would have more than 2 points"


def test_naturality_checks_each_lifted_map_once(monkeypatch):
    checked = []

    def counting_check_continuous(f):
        checked.append((f.domain.n, f.codomain.n))
        return real_check_continuous(f)

    real_check_continuous = powerspaces.check_continuous
    monkeypatch.setattr(powerspaces, "check_continuous", counting_check_continuous)
    records = suites._naturality_records(2, False, DEFAULT_LIMITS)
    assert all(r.passed for r in records)
    # f, A(f), K(f) and O(f) of each generator, the lifts of which the squares lift again
    assert len(checked) == 4 * _naturality_generators(2)


def test_naturality_checks_the_lifted_maps(monkeypatch):
    # a non-monotone A(f) is caught before it is lifted again, as
    # functor_map would catch it
    def reversed_a(table, dom_ps, cod_ps):
        lifted = real_lift_table(table, dom_ps, cod_ps)
        return lifted[::-1] if dom_ps.label == "A(X)" else lifted

    real_lift_table = canonical.lift_table
    monkeypatch.setattr(canonical, "lift_table", reversed_a)
    with pytest.raises(NotContinuous):
        next(naturality_squares(identity_map(D2), Powers(D2), Powers(D2)))
    with pytest.raises(NotContinuous):
        check_naturality(identity_map(D2), "gamma", Powers(D2), Powers(D2))


def test_distributive_law_small_and_guard():
    # no size guard of its own: every space of at most 3 points passes,
    # and the Limits cap bounds the triple-nested builds as everywhere
    for sp in enumerate_spaces(3):
        v = check_distributive_law(Powers(sp))
        assert v.holds
        assert v.info["tau_orientation_holds"]
    with pytest.raises(PowerspaceTooLarge):  # A(K(K(X))) has 84 points
        check_distributive_law(Powers(antichain(3), DEFAULT_LIMITS.with_cap(83)))
