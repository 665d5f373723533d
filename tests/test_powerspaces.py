import pytest

from powerspace.core import (
    PtSet,
    SpaceMap,
    antichain,
    bits,
    chain,
    check_continuous,
    empty_space,
    enumerate_spaces,
    iter_continuous_maps,
    mask_of,
    sierpinski,
)
from powerspace.errors import NotContinuous, PowerspaceTooLarge
from powerspace.config import Limits
from powerspace.powerspaces import (
    algebra_laws,
    construction_to_json,
    convex_powerspace,
    functor_map,
    lower_powerspace,
    monad_laws,
    monad_mult,
    monad_preimage_identities,
    monad_unit,
    open_lattice,
    structure_map_intersection,
    structure_map_union,
    to_dot,
    upper_powerspace,
)

S = sierpinski()
D2 = antichain(2, names=("a", "b"))


def test_lower_powerspace_shapes():
    a_s = lower_powerspace(S)
    assert a_s.space.n == 3
    assert a_s.extents == (0, 0b01, 0b11)  # {}, {bot}, whole
    a_d = lower_powerspace(D2)
    assert a_d.space.n == 4
    assert lower_powerspace(empty_space()).space.n == 1


def test_upper_powerspace_shapes():
    k_s = upper_powerspace(S)
    assert k_s.extents == (0, 0b10, 0b11)
    # reverse inclusion: the whole space is the bottom point
    whole = k_s.point_of(0b11)
    for i in range(3):
        assert k_s.space.leq(whole, i)
    assert upper_powerspace(chain(3)).space.n == 4


def test_convex_powerspace_examples():
    l_s = convex_powerspace(S)
    assert l_s.extents == ((0, 0), (0b01, 0b11), (0b11, 0b10), (0b11, 0b11))
    assert convex_powerspace(D2).space.n == 4
    assert convex_powerspace(empty_space()).extents == ((0, 0),)


def test_convex_count_matches_pair_oracle():
    for sp in enumerate_spaces(4):
        lens = convex_powerspace(sp)
        oracle = set()
        for a in range(sp.full_mask + 1):
            if not sp.is_lower(a):
                continue
            for k in range(sp.full_mask + 1):
                if not sp.is_upper(k):
                    continue
                core = a & k
                if sp.closure_mask(core) == a and sp.saturation_mask(core) == k:
                    oracle.add((a, k))
        assert set(lens.extents) == oracle


def test_open_lattice_shapes():
    assert open_lattice(S).space.n == 3
    assert open_lattice(antichain(3)).space.n == 8
    assert open_lattice(open_lattice(antichain(3))).space.n == 20


def _subset(a, b):
    return not (a & ~b)


ORDERS = {
    "subset": _subset,
    "superset": lambda a, b: _subset(b, a),
    # Egli-Milner: closed parts grow, saturated parts shrink
    "egli-milner": lambda a, b: _subset(a[0], b[0]) and _subset(b[1], a[1]),
}


@pytest.mark.parametrize("builder,expected_order", [
    (lower_powerspace, "subset"),
    (upper_powerspace, "superset"),
    (convex_powerspace, "egli-milner"),
    (open_lattice, "subset"),
])
def test_specialization_order_of_constructions(builder, expected_order):
    leq = ORDERS[expected_order]
    for sp in enumerate_spaces(4):
        ps = builder(sp)
        for i, a in enumerate(ps.extents):
            for j, b in enumerate(ps.extents):
                assert ps.space.leq(i, j) == leq(a, b)


def test_set_formers_match_pairwise_definitions():
    # diamond meets, box lies inside, containing contains: checked point by
    # point against the extents, closed parts of lenses for diamond and
    # containing, saturated parts for box
    for sp in enumerate_spaces(3):
        for builder in (lower_powerspace, upper_powerspace, convex_powerspace, open_lattice):
            ps = builder(sp)
            closed = [e[0] if ps.kind == "L" else e for e in ps.extents]
            saturated = [e[1] if ps.kind == "L" else e for e in ps.extents]
            for m in range(sp.full_mask + 1):
                assert ps.diamond(m) == mask_of(i for i, e in enumerate(closed) if e & m)
                assert ps.box(m) == mask_of(i for i, e in enumerate(saturated) if _subset(e, m))
                assert ps.containing(m) == mask_of(i for i, e in enumerate(closed) if _subset(m, e))


def test_generated_topology_is_upper_family():
    # the generated family, closed under union and intersection, is the
    # family of upper sets of the derived order
    from powerspace.core import close_family, enumerate_upper_sets

    for sp in enumerate_spaces(3):
        for builder in (lower_powerspace, upper_powerspace, convex_powerspace, open_lattice):
            ps = builder(sp)
            generated = close_family(ps.subbasis(), ps.space.full_mask)
            assert generated == set(enumerate_upper_sets(ps.space.up))


def test_size_cap():
    with pytest.raises(PowerspaceTooLarge):
        lower_powerspace(antichain(4), Limits(max_construction_points=10))


def test_functor_map_examples():
    f = SpaceMap(D2, S, (0, 1))  # a -> bot, b -> top
    af = functor_map("A", f)
    a_d, a_s = lower_powerspace(D2), lower_powerspace(S)
    assert a_s.extents[af.table[a_d.point_of(0b11)]] == 0b11  # closure of the image
    of = functor_map("O", f)
    o_s, o_d = open_lattice(S), open_lattice(D2)
    assert o_d.extents[of.table[o_s.point_of(0b10)]] == 0b10  # preimage of {top} is {b}
    ident = functor_map("A", SpaceMap(S, S, (0, 1)))
    assert ident.table == tuple(range(3))


def test_functor_map_needs_continuity():
    swap = SpaceMap(S, S, (1, 0))
    with pytest.raises(NotContinuous):
        functor_map("A", swap)


def test_functor_preimage_identities():
    # lifted maps pull subbasic opens back to subbasic opens
    spaces = enumerate_spaces(3)
    for dom in spaces:
        for cod in spaces:
            a_dom, a_cod = lower_powerspace(dom), lower_powerspace(cod)
            k_dom, k_cod = upper_powerspace(dom), upper_powerspace(cod)
            for f in iter_continuous_maps(dom, cod):
                af = functor_map("A", f, dom_ps=a_dom, cod_ps=a_cod)
                kf = functor_map("K", f, dom_ps=k_dom, cod_ps=k_cod)
                for u in cod.opens():
                    pre = f.preimage_mask(u)
                    assert af.preimage_mask(a_cod.diamond(u)) == a_dom.diamond(pre)
                    assert kf.preimage_mask(k_cod.box(u)) == k_dom.box(pre)


def test_monad_unit_examples():
    eta_a = monad_unit("A", S)
    a_s = lower_powerspace(S)
    assert a_s.extents[eta_a.table[1]] == 0b11  # closure of top is everything
    eta_k = monad_unit("K", S)
    k_s = upper_powerspace(S)
    assert k_s.extents[eta_k.table[0]] == 0b11  # saturation of bot is everything


def test_monad_mult_example():
    a_d = lower_powerspace(D2)
    a_a_d = lower_powerspace(a_d)
    mu = monad_mult("A", D2, ps=a_d, pps=a_a_d)
    gen = (1 << a_d.point_of(0b01)) | (1 << a_d.point_of(0b11))
    fam = a_d.space.closure_mask(gen)
    assert a_d.extents[mu.table[a_a_d.point_of(fam)]] == 0b11


@pytest.mark.parametrize("kind", ["A", "K"])
def test_monad_laws_all_small_spaces(kind):
    for sp in enumerate_spaces(3):
        assert monad_laws(kind, sp).holds
        assert monad_preimage_identities(kind, sp).holds


def test_structure_maps_examples():
    o_s = open_lattice(S)
    union = structure_map_union(S, lattice=o_s)
    inter = structure_map_intersection(S, lattice=o_s)
    ao = lower_powerspace(o_s)
    ko = upper_powerspace(o_s)
    down_top = o_s.space.closure_mask(1 << o_s.point_of(0b10))
    up_top = o_s.space.saturation_mask(1 << o_s.point_of(0b10))
    assert o_s.extents[union.table[ao.point_of(down_top)]] == 0b10
    assert o_s.extents[inter.table[ko.point_of(up_top)]] == 0b10
    eta = monad_unit("A", o_s, ps=ao)
    for i in range(o_s.space.n):
        assert union.table[eta.table[i]] == i


@pytest.mark.parametrize("kind", ["A", "K"])
def test_algebra_laws_small_spaces(kind):
    for sp in enumerate_spaces(3):
        assert algebra_laws(kind, sp).holds


def test_lifted_open_map_lattice_structure():
    # A(O(f)) preserves finite meets and all joins; K(O(f)) preserves
    # finite meets; binary joins in K(O(X)) are intersections
    spaces = enumerate_spaces(3)
    for dom in spaces:
        for cod in spaces:
            o_dom, o_cod = open_lattice(dom), open_lattice(cod)
            ao_dom, ao_cod = lower_powerspace(o_dom), lower_powerspace(o_cod)
            ko_dom, ko_cod = upper_powerspace(o_dom), upper_powerspace(o_cod)
            for f in iter_continuous_maps(dom, cod):
                of = functor_map("O", f, dom_ps=o_cod, cod_ps=o_dom)
                aof = functor_map("A", of, dom_ps=ao_cod, cod_ps=ao_dom)
                kof = functor_map("K", of, dom_ps=ko_cod, cod_ps=ko_dom)
                exts = ao_cod.extents
                for i, e1 in enumerate(exts):
                    for j, e2 in enumerate(exts):
                        meet = ao_dom.extents[aof.table[ao_cod.point_of(e1 & e2)]]
                        assert meet == ao_dom.extents[aof.table[i]] & ao_dom.extents[aof.table[j]]
                        join = ao_dom.extents[aof.table[ao_cod.point_of(e1 | e2)]]
                        assert join == ao_dom.extents[aof.table[i]] | ao_dom.extents[aof.table[j]]
                kexts = ko_cod.extents
                for i, e1 in enumerate(kexts):
                    for j, e2 in enumerate(kexts):
                        meet = ko_dom.extents[kof.table[ko_cod.point_of(e1 | e2)]]
                        assert meet == ko_dom.extents[kof.table[i]] | ko_dom.extents[kof.table[j]]
                        join = ko_dom.extents[kof.table[ko_cod.point_of(e1 & e2)]]
                        assert join == ko_dom.extents[kof.table[i]] & ko_dom.extents[kof.table[j]]


def test_binary_joins_in_upper_lattice_are_intersections():
    for sp in enumerate_spaces(3):
        ko = upper_powerspace(open_lattice(sp))
        exts = ko.extents
        space = ko.space
        for i, e1 in enumerate(exts):
            for j, e2 in enumerate(exts):
                k = ko.point_of(e1 & e2)
                # least upper bound in the specialization order
                assert space.leq(i, k) and space.leq(j, k)
                for m in range(space.n):
                    if space.leq(i, m) and space.leq(j, m):
                        assert space.leq(k, m)


def test_serialization_and_dot():
    ka = upper_powerspace(lower_powerspace(S))
    data = construction_to_json(ka)
    assert data["kind"] == "K" and data["label"] == "K(A(X))"
    assert len(data["points"]) == 4
    dot = to_dot(ka)
    assert dot.count("->") == 3  # a 4-chain has three covers
    lens_json = construction_to_json(convex_powerspace(S))
    assert lens_json["points"][0]["extent"] == {"closed": [], "saturated": []}
