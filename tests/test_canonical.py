import pytest

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
    phi_psi,
    sigma_tau,
    verify_pair,
)
from powerspace.core import (
    PtSet,
    SpaceMap,
    antichain,
    bits,
    empty_space,
    enumerate_spaces,
    iter_continuous_maps,
    set_label,
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
    eta = monad_unit("A", pw.O, ps=pw.AO)
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
    eta = monad_unit("K", pw.O, ps=pw.KO)
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
    assert check_naturality(f, "sigma").holds


def test_naturality_rejects_discontinuous():
    swap = SpaceMap(S, S, (1, 0))
    with pytest.raises(NotContinuous):
        check_naturality(swap, "sigma")


def test_naturality_all_maps_two_points():
    spaces = enumerate_spaces(2)
    powers = {sp.fingerprint: Powers(sp) for sp in spaces}
    for dom in spaces:
        for cod in spaces:
            for f in iter_continuous_maps(dom, cod):
                for which in ("sigma", "tau", "phi", "psi", "alpha", "beta", "gamma", "delta"):
                    assert check_naturality(f, which, powers[dom.fingerprint], powers[cod.fingerprint]).holds


def test_distributive_law_small_and_guard():
    for sp in enumerate_spaces(2):
        v = check_distributive_law(sp)
        assert v.holds
        assert v.info["tau_orientation_holds"]
    with pytest.raises(PowerspaceTooLarge):
        check_distributive_law(antichain(3))
    assert check_distributive_law(antichain(3), allow_large=True).holds
