import pytest

from powerspace import powerspaces
from powerspace.core import (
    SpaceMap,
    antichain,
    chain,
    empty_space,
    enumerate_spaces,
    iter_continuous_maps,
    mask_of,
    sierpinski,
)
from powerspace.errors import NotContinuous, PowerspaceTooLarge
from powerspace.config import Limits
from powerspace.powerspaces import (
    Powers,
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
    structure_map,
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


# bases wider than the enumerated spaces: K(antichain(3)) has 8 points
WIDE_BASES = (upper_powerspace(antichain(3)).space,)


def test_convex_count_matches_pair_oracle():
    # the literal lens definition over every closed and saturated pair,
    # against the extremal-point filter, order included
    for sp in (*enumerate_spaces(4), *enumerate_spaces(3, up_to_iso=False), *WIDE_BASES):
        subsets = range(sp.full_mask + 1)
        closed = [a for a in subsets if sp.is_lower(a)]
        saturated = [k for k in subsets if sp.is_upper(k)]
        oracle = [
            (a, k)
            for a in closed
            for k in saturated
            if sp.closure_mask(a & k) == a and sp.saturation_mask(a & k) == k
        ]
        assert convex_powerspace(sp).extents == tuple(sorted(oracle))


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
    # containing, saturated parts for box.  The members index is read column
    # by column: the wide base checks it past 3 points, and the empty space,
    # the first of enumerate_spaces, at none
    assert enumerate_spaces(3)[0] == empty_space()
    for sp in (*enumerate_spaces(3), *WIDE_BASES):
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
    from oracles import close_family
    from powerspace.core import enumerate_upper_sets

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
    a_d, a_s = lower_powerspace(D2), lower_powerspace(S)
    af = functor_map(f, a_d, a_s)
    assert a_s.extents[af.table[a_d.point_of(0b11)]] == 0b11  # closure of the image
    o_s, o_d = open_lattice(S), open_lattice(D2)
    of = functor_map(f, o_s, o_d)
    assert o_d.extents[of.table[o_s.point_of(0b10)]] == 0b10  # preimage of {top} is {b}
    ident = functor_map(SpaceMap(S, S, (0, 1)), a_s, a_s)
    assert ident.table == tuple(range(3))


def test_functor_map_needs_continuity():
    swap = SpaceMap(S, S, (1, 0))
    with pytest.raises(NotContinuous):
        functor_map(swap, lower_powerspace(S), lower_powerspace(S))


def test_functor_preimage_identities():
    # lifted maps pull subbasic opens back to subbasic opens
    spaces = enumerate_spaces(3)
    for dom in spaces:
        for cod in spaces:
            a_dom, a_cod = lower_powerspace(dom), lower_powerspace(cod)
            k_dom, k_cod = upper_powerspace(dom), upper_powerspace(cod)
            for f in iter_continuous_maps(dom, cod):
                af = functor_map(f, a_dom, a_cod)
                kf = functor_map(f, k_dom, k_cod)
                for u in cod.opens():
                    pre = f.preimage_mask(u)
                    assert af.preimage_mask(a_cod.diamond(u)) == a_dom.diamond(pre)
                    assert kf.preimage_mask(k_cod.box(u)) == k_dom.box(pre)


def test_monad_unit_examples():
    a_s = lower_powerspace(S)
    eta_a = monad_unit(a_s)
    assert a_s.extents[eta_a.table[1]] == 0b11  # closure of top is everything
    k_s = upper_powerspace(S)
    eta_k = monad_unit(k_s)
    assert k_s.extents[eta_k.table[0]] == 0b11  # saturation of bot is everything


def test_monad_mult_example():
    a_d = lower_powerspace(D2)
    a_a_d = lower_powerspace(a_d)
    mu = monad_mult(a_a_d)
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
    ao = lower_powerspace(o_s)
    ko = upper_powerspace(o_s)
    union = structure_map(ao)
    inter = structure_map(ko)
    down_top = o_s.space.closure_mask(1 << o_s.point_of(0b10))
    up_top = o_s.space.saturation_mask(1 << o_s.point_of(0b10))
    assert o_s.extents[union.table[ao.point_of(down_top)]] == 0b10
    assert o_s.extents[inter.table[ko.point_of(up_top)]] == 0b10
    eta = monad_unit(ao)
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
                of = functor_map(f, o_cod, o_dom)
                aof = functor_map(of, ao_cod, ao_dom)
                kof = functor_map(of, ko_cod, ko_dom)
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


def test_powers_builds_each_word_once_from_its_tail():
    pw = Powers(S)
    assert pw.AK is pw.AK and pw.AK.label == "A(K(X))"
    assert pw.AK.base_construction is pw.K
    assert pw.AKK.base_construction is pw.KK
    assert pw.LO.space == convex_powerspace(open_lattice(S)).space
    for bad in ("", "AX", "a", "pairs_"):
        with pytest.raises(AttributeError):
            getattr(pw, bad)


def test_powers_over_shares_the_builds():
    pw = Powers(S)
    tower = pw.over("K")
    assert tower is pw.over("K") and tower.base == pw.K.space
    assert tower.A is pw.AK and tower.KA is pw.KAK
    assert tower.over("A").O is pw.OAK
    assert tower.pairs is not pw.pairs


# Literal definitions, sharing no code with the library's maps: a closure is
# the intersection of the closed sets containing the set, a saturation the
# intersection of the opens containing it, an image or preimage a loop over
# the points, a union or intersection of extents a loop over the family.


def _literal_hull(space, m, closed):
    out = space.full_mask
    for u in space.opens():
        c = space.full_mask & ~u if closed else u
        if m & c == m:
            out &= c
    return out


def _literal_image(f, m):
    out = 0
    for i in range(f.domain.n):
        if m >> i & 1:
            out |= 1 << f.table[i]
    return out


def _literal_preimage(f, m):
    return sum(1 << i for i in range(f.domain.n) if m >> f.table[i] & 1)


def _literal_union(extents, fam):
    out = 0
    for j, e in enumerate(extents):
        if fam >> j & 1:
            out |= e
    return out


def _literal_intersection(extents, fam, full):
    out = full
    for j, e in enumerate(extents):
        if fam >> j & 1:
            out &= e
    return out


def _images(m: SpaceMap, dom, cod):
    """The extent each point's extent goes to under m, as a list."""
    assert m.domain == dom.space and m.codomain == cod.space
    return [cod.extents[v] for v in m.table]


def test_maps_match_their_literal_definitions_on_labelled_spaces():
    towers = [Powers(sp) for sp in enumerate_spaces(3, up_to_iso=False)]
    lifted = 0
    for px in towers:
        x = px.base
        eta_a, eta_k = monad_unit(px.A), monad_unit(px.K)
        assert eta_a.domain == x and eta_k.domain == x
        assert [px.A.extents[v] for v in eta_a.table] == [_literal_hull(x, 1 << p, True) for p in range(x.n)]
        assert [px.K.extents[v] for v in eta_k.table] == [_literal_hull(x, 1 << p, False) for p in range(x.n)]
        for t in (px.A, px.K):
            tt = px.AA if t is px.A else px.KK
            assert _images(monad_mult(tt), tt, t) == [_literal_union(t.extents, fam) for fam in tt.extents]
        lattice, full = px.O.extents, x.full_mask
        assert _images(structure_map(px.AO), px.AO, px.O) == [_literal_union(lattice, fam) for fam in px.AO.extents]
        assert _images(structure_map(px.KO), px.KO, px.O) == [
            _literal_intersection(lattice, fam, full) for fam in px.KO.extents
        ]
        for py in towers:
            y = py.base
            for f in iter_continuous_maps(x, y):
                lifted += 1
                assert _images(functor_map(f, px.A, py.A), px.A, py.A) == [
                    _literal_hull(y, _literal_image(f, a), True) for a in px.A.extents
                ]
                assert _images(functor_map(f, px.K, py.K), px.K, py.K) == [
                    _literal_hull(y, _literal_image(f, k), False) for k in px.K.extents
                ]
                assert _images(functor_map(f, py.O, px.O), py.O, px.O) == [
                    _literal_preimage(f, v) for v in py.O.extents
                ]
    assert lifted == 4842


def test_maps_reject_constructions_they_do_not_run_between():
    f = SpaceMap(D2, S, (0, 1))  # every map out of a discrete space is continuous
    pd, ps = Powers(D2), Powers(S)
    # the well-formed lifts
    assert functor_map(f, pd.A, ps.A).codomain == ps.A.space
    assert functor_map(f, ps.O, pd.O).codomain == pd.O.space
    bad = {
        "kind mismatch": lambda: functor_map(f, pd.A, ps.K),
        "no action on L": lambda: functor_map(f, pd.L, ps.L),
        "domain over the wrong base": lambda: functor_map(f, ps.A, ps.A),
        "codomain over the wrong base": lambda: functor_map(f, pd.K, pd.K),
        "O with its direction reversed": lambda: functor_map(f, pd.O, ps.O),
        "unit into O": lambda: monad_unit(ps.O),
        "unit into L": lambda: monad_unit(ps.L),
        "mult on A(K(X))": lambda: monad_mult(ps.AK),
        "mult on a single construction": lambda: monad_mult(ps.A),
        "mult over a bare space": lambda: monad_mult(lower_powerspace(ps.A.space)),
        "structure map on A(A(X))": lambda: structure_map(ps.AA),
        "structure map on O(O(X))": lambda: structure_map(ps.OO),
        "structure map on A(X)": lambda: structure_map(ps.A),
    }
    for name, call in bad.items():
        with pytest.raises(ValueError):
            call()
            pytest.fail(name)


def test_law_checks_read_their_caps_off_the_tower():
    # A(A(X)) and A(O(X)) of the 2-point antichain have 6 points, inside
    # the cap; the families over each, 8 of them, are not
    small = Limits(max_construction_points=7)
    for law in (monad_laws, algebra_laws):
        with pytest.raises(PowerspaceTooLarge):
            law("A", Powers(antichain(2), small))
        with pytest.raises(PowerspaceTooLarge):
            law("A", antichain(2), small)


def test_law_checks_count_the_families_before_enumerating_them(monkeypatch):
    # the lower sets of A(A(X)) over the 4-point antichain number
    # 1,403,305,876; the count alone refuses them
    pw = Powers(antichain(4))
    pw.AA
    enumerated = []
    monkeypatch.setattr(powerspaces, "enumerate_lower_sets", lambda *args: enumerated.append(args))
    with pytest.raises(PowerspaceTooLarge, match="1403305876"):
        monad_laws("A", pw)
    assert not enumerated
