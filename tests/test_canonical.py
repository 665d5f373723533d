from dataclasses import replace

import pytest

from powerspace import canonical, suites
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
from powerspace.config import DEFAULT_LIMITS
from powerspace.core import (
    FiniteSpace,
    PtSet,
    SpaceMap,
    antichain,
    bits,
    check_continuous,
    empty_space,
    enumerate_spaces,
    identity_map,
    iter_continuous_maps,
    sierpinski,
)
from powerspace.errors import NotContinuous, PowerspaceTooLarge, ShapeMismatch

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
        fresh = builder(D2)  # a bare space builds a new pair each time
        assert fresh is not pair and fresh is not builder(D2)
        assert (fresh.forward.table, fresh.backward.table) == (pair.forward.table, pair.backward.table)
    assert set(pw.pairs) == {"sigma_tau", "phi_psi", "alpha_beta", "gamma_delta"}


def test_five_point_subject():
    # the 4-point antichain with p4 below p0; every iterated construction
    # has 887 points, more than any other subject in these tests
    pw = Powers(FiniteSpace(("p0", "p1", "p2", "p3", "p4"), up=(1, 2, 4, 8, 17)))
    for name in ("AK", "KA", "OO", "AO", "OK", "KO", "OA"):
        assert getattr(pw, name).space.n == 887, name
    for name, builder in PAIR_BUILDERS.items():
        v = verify_pair(builder(pw))
        assert v.holds, (name, v.witness)
    v = check_preimage_identities(pw)
    assert v.holds, v.witness
    assert v.info["instances"] == 3644


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
        v = check_preimage_identities(sp)
        assert v.holds, v.witness


def test_preimage_identities_empty_space():
    assert check_preimage_identities(empty_space()).holds


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


@pytest.mark.parametrize("which", list(SQUARES))
def test_naturality_detects_one_wrong_table_entry(which):
    builder, direction, contravariant = SQUARES[which]
    px, py = Powers(D2), Powers(D2)
    good = builder(py)
    m = getattr(good, direction)
    wrong = (m.table[0] + 1) % m.codomain.n
    bad = SpaceMap(m.domain, m.codomain, (wrong,) + m.table[1:])
    py.pairs[builder.__name__] = replace(good, **{direction: bad})
    # over the identity the lifts are identities, so each side of the square
    # is one of the two pairs: the one over Y is on the left unless the
    # square runs against the arrows
    sides = (m.codomain.names[m.table[0]], m.codomain.names[wrong])
    left, right = sides if contravariant else sides[::-1]
    expected = {"square": which, "point": m.domain.names[0], "left": left, "right": right}
    f = identity_map(D2)
    verdicts = dict(naturality_squares(f, px, py))
    assert list(verdicts) == list(SQUARES)
    assert [w for w, v in verdicts.items() if not v.holds] == [which]
    assert verdicts[which].witness == expected
    assert check_naturality(f, which, px, py).witness == expected


def test_naturality_squares_reject_discontinuous():
    with pytest.raises(NotContinuous):
        next(naturality_squares(SpaceMap(S, S, (1, 0)), Powers(S), Powers(S)))
    with pytest.raises(ValueError, match="unknown map name"):
        check_naturality(identity_map(S), "omega", Powers(S), Powers(S))


def test_naturality_lifts_each_map_once(monkeypatch):
    lifted = []

    def counting_functor_map(f, dom_ps, cod_ps):
        lifted.append(dom_ps.kind)
        return real_functor_map(f, dom_ps, cod_ps)

    real_functor_map = canonical.functor_map
    monkeypatch.setattr(canonical, "functor_map", counting_functor_map)
    records = suites._naturality_records(2, False, DEFAULT_LIMITS)
    spaces = [sp for sp in enumerate_spaces(2) if sp.n]
    maps = sum(len(list(iter_continuous_maps(dom, cod))) for dom in spaces for cod in spaces)
    assert all(r.passed for r in records)
    # K, A, O, AK, KA, OO, OK, AO, OA and KO of each map, no more
    assert len(lifted) == 10 * maps
    assert sorted(lifted) == sorted("KAOAKOOAOK" * maps)


def test_distributive_law_small_and_guard():
    for sp in enumerate_spaces(2):
        v = check_distributive_law(sp)
        assert v.holds
        assert v.info["tau_orientation_holds"]
    with pytest.raises(PowerspaceTooLarge):
        check_distributive_law(antichain(3))
    assert check_distributive_law(antichain(3), allow_large=True).holds
