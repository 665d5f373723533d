import copy
import pickle
import random
import re
from itertools import product

import pytest

from powerspace import checkers, core, powerspaces
from powerspace.canonical import PAIR_BUILDERS, check_preimage_identities, verify_pair
from powerspace.core import (
    FiniteSpace,
    Labels,
    SpaceMap,
    antichain,
    chain,
    check_continuous,
    compose,
    empty_space,
    enumerate_spaces,
    iter_continuous_maps,
    mask_of,
    set_label,
    sierpinski,
    space_from_json,
    space_from_opens,
    space_from_poset,
)
from powerspace.errors import CycleDetected, NotContinuous, NotT0, PowerspaceTooLarge
from powerspace.config import DEFAULT_LIMITS, Limits
from powerspace.powerspaces import (
    KIND_CONVEX,
    Powers,
    algebra_laws,
    construction_to_json,
    convex_powerspace,
    functor_map,
    lift_table,
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

from oracles import (
    labelled_spaces,
    literal_associativity,
    literal_intersections,
    literal_rows,
    literal_subbasis,
    literal_unions,
    row_union_covers,
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
    for sp in (*enumerate_spaces(4), *labelled_spaces(3), *WIDE_BASES):
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
            generated = close_family(literal_subbasis(ps), ps.space.full_mask)
            assert generated == set(enumerate_upper_sets(ps.space.up))


def test_open_lattice_subbasis_matches_the_per_open_scan():
    # the generators of O(X)'s topology, one per open U: the opens of X containing U
    for sp in labelled_spaces(3):
        ps = open_lattice(sp)
        scan = [mask_of(j for j, v in enumerate(ps.extents) if not u & ~v) for u in sp.opens()]
        assert literal_subbasis(ps) == scan

def test_size_cap():
    # a cap hit while enumerating extents names the construction, not the
    # kind of set enumerated: L(X) enumerates closed and saturated sets
    cap = Limits(max_construction_points=10)
    for builder, label in ((lower_powerspace, "A(X)"), (upper_powerspace, "K(X)"),
                           (convex_powerspace, "L(X)"), (open_lattice, "O(X)")):
        with pytest.raises(PowerspaceTooLarge, match=rf"^{re.escape(label)} would have more than 10 points$"):
            builder(antichain(4), cap)
    with pytest.raises(PowerspaceTooLarge, match=r"^A\(A\(X\)\) would have more than 5 points$"):
        lower_powerspace(lower_powerspace(antichain(2)), Limits(max_construction_points=5))


HOMEO_WORDS = ("A", "K", "O", "AK", "KA", "OO", "AO", "OK", "KO", "OA")


def test_names_read_as_the_tuple_of_their_labels():
    """Every construction of the homeo words and L over the labelled
    spaces of at most 3 points.  The names A, K and O make on first read
    are set_label of each extent, and a lens is named by its two parts.
    Read, compared, hashed, printed, pickled (as --jobs sends results) and
    exported, the space is the same as one with those names as a tuple."""
    built = 0
    for sp in labelled_spaces(3):
        pw = Powers(sp)
        for word in (*HOMEO_WORDS, "L"):
            cs = getattr(pw, word)
            names, base = cs.space.names, cs.base.names
            if cs.kind == KIND_CONVEX:
                assert type(names) is tuple
                want = tuple(f"<{set_label(base, a)},{set_label(base, k)}>" for a, k in cs.extents)
            else:
                assert type(names) is Labels
                want = tuple(set_label(base, e) for e in cs.extents)
                # each way in makes the labels on a fresh sequence
                fresh = lambda: Labels(base, cs.extents)
                assert fresh() == want and want == fresh() and fresh() != want + ("",)
                assert hash(fresh()) == hash(want) and repr(fresh()) == repr(want)
                assert [fresh()[i] for i in range(len(want))] == list(fresh()) == list(want)
                assert all(w in fresh() for w in want) and fresh()[1:] == want[1:]
                thawed = pickle.loads(pickle.dumps(fresh()))
                assert type(thawed) is tuple and thawed == want
            assert len(names) == len(want) and tuple(names) == want and names == want
            eager = FiniteSpace(want, cs.space.up)
            assert cs.space == eager and eager == cs.space and hash(cs.space) == hash(eager)
            assert cs.space.fingerprint == eager.fingerprint and repr(cs.space) == repr(eager)
            thawed = pickle.loads(pickle.dumps(cs.space))
            assert thawed == eager and type(thawed.names) is tuple and thawed.covers() == eager.covers()
            with_eager = copy.copy(cs)
            object.__setattr__(with_eager, "space", eager)
            assert to_dot(cs) == to_dot(eager)
            assert construction_to_json(cs) == construction_to_json(with_eager)
            built += 1
    assert built == 11 * len(labelled_spaces(3))


def test_homeo_work_makes_no_construction_label(monkeypatch):
    """The perfbench homeo-large work on its subject: the ten builds, the
    four canonical pairs, verify_pair and the preimage identities make no
    label of a construction point, nor do size queries and comparing a
    space with itself.  A first read of the names makes each label once,
    a second read none."""
    made = []
    label = core.set_label
    monkeypatch.setattr(core, "set_label", lambda names, mask: made.append(mask) or label(names, mask))
    pw = Powers(FiniteSpace(tuple(f"p{i}" for i in range(5)), (1, 2, 4, 8, 17)))
    spaces = [getattr(pw, word).space for word in HOMEO_WORDS]
    assert all(verify_pair(builder(pw)).holds for builder in PAIR_BUILDERS.values())
    assert check_preimage_identities(pw).holds
    assert [s.n for s in spaces] == [len(s.names) for s in spaces] == [24, 24, 24, *[887] * 7]
    assert all(s == s and s.names == s.names and s.full_mask == (1 << s.n) - 1 for s in spaces)
    assert made == []
    # K and O over one base share their names (K, O; KA, OA; OO, KO), and
    # reading A(K(X))'s reads K(X)'s
    distinct = {id(s.names): len(s.names) for s in spaces}
    assert len(distinct) == 7
    for s in spaces:
        list(s.names)
    assert len(made) == sum(distinct.values()) == 2 * 24 + 5 * 887
    for s in spaces:
        list(s.names)
    assert len(made) == sum(distinct.values())


def test_extents_are_the_upper_sets_of_the_base_and_their_complements():
    # the lists read straight off the base's order, and for L the pairs
    # of them that pass the lens definition Cl(A&K) = A, up(A&K) = K
    subject = FiniteSpace(tuple(f"p{i}" for i in range(5)), (1, 2, 4, 8, 17))
    for sp in (*labelled_spaces(4), subject):
        lower, upper = core.enumerate_upper_sets(sp.down), core.enumerate_upper_sets(sp.up)
        pw = Powers(sp)
        assert list(pw.A.extents) == lower
        assert pw.K.extents is pw.O.extents
        assert pw.K.members is pw.O.members
        assert pw.K.space.names is pw.O.space.names
        assert list(pw.K.extents) == upper
        lenses = [(a, k) for a in lower for k in upper
                  if sp.closure_mask(a & k) == a and sp.saturation_mask(a & k) == k]
        assert list(pw.L.extents) == lenses


def test_derived_orders_match_the_row_pass_and_the_walk():
    # the A, K and O orders are derived from the extents and trusted; here
    # they meet the per-extent row pass and the validating walk, which
    # share no code with the derivation, and every fold step adds one
    # base point
    subject = FiniteSpace(tuple(f"p{i}" for i in range(5)), (1, 2, 4, 8, 17))
    checked = 0
    for sp in (*labelled_spaces(4), subject):
        pw = Powers(sp)
        for word in HOMEO_WORDS:
            cs = getattr(pw, word)
            space = cs.space
            assert space.up == literal_rows(cs), (sp, word)
            assert space.covers() == FiniteSpace(space.names, space.up).covers(), (sp, word)
            prev, piv = cs._fold_steps()
            for k in range(1, space.n):
                smaller = cs.extents[prev[k]]
                assert not smaller >> piv[k] & 1 and smaller | 1 << piv[k] == cs.extents[k], (sp, word, k)
            checked += 1
    assert checked == 2440


def test_derived_orders_skip_the_walk_and_parsed_input_does_not(monkeypatch):
    walked = []
    post_init = FiniteSpace.__post_init__

    def counted(space):
        walked.append(space.n)
        post_init(space)

    pw = Powers(antichain(3))
    monkeypatch.setattr(FiniteSpace, "__post_init__", counted)
    for word in HOMEO_WORDS:
        getattr(pw, word)
    # a lens cover changes one part, so L's order is derived and trusted too
    pw.LK
    assert walked == []
    space_from_json({"points": ["a", "b"], "order": [["a", "b"]]})
    assert walked == [2]
    with pytest.raises(CycleDetected):
        space_from_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(NotT0):
        space_from_opens(["a", "b"], [])
    with pytest.raises(ValueError, match="order must be transitive"):
        FiniteSpace(("a", "b", "c"), (0b011, 0b110, 0b100))


def test_lens_order_matches_the_walk_the_row_union_and_egli_milner():
    # the derived Hasse edges of L against the validating walk and the
    # row-union oracle, which share no code with the derivation; each
    # edge changes one part, and each row is the literal Egli-Milner
    # comparison of the extents
    tower = Powers(antichain(3))
    bases = (*labelled_spaces(4), tower.K.space, tower.A.space, tower.O.space)
    lk = Powers(antichain(4)).LK
    for cs in (*map(convex_powerspace, bases), lk):
        space = cs.space
        covers = space.covers()
        assert covers == FiniteSpace(space.names, space.up).covers() == row_union_covers(space.up), cs
        for i, j in covers:
            (a, k), (b, m) = cs.extents[i], cs.extents[j]
            assert (a == b) != (k == m), (cs, i, j)
        # the rows by closed and by saturated part, lenses sharing their parts
        closed, saturated = map(set, zip(*cs.extents))
        above = {a: mask_of(j for j, (b, _) in enumerate(cs.extents) if not a & ~b) for a in closed}
        inside = {k: mask_of(j for j, (_, m) in enumerate(cs.extents) if not m & ~k) for k in saturated}
        assert space.up == tuple(above[a] & inside[k] for a, k in cs.extents), cs
    assert len(lk.space.covers()) == 17144


def test_homeo_words_enumerate_once_per_space(monkeypatch):
    # A, K and O over X read X's opens; AK and OK those of K(X); KA and OA
    # those of A(X); OO, AO and KO those of O(X): four spaces, four
    # enumerations
    calls = []
    enumerate_upper_sets = core.enumerate_upper_sets

    def counted(*args):
        calls.append(args)
        return enumerate_upper_sets(*args)

    monkeypatch.setattr(core, "enumerate_upper_sets", counted)
    pw = Powers(antichain(3))
    for word in HOMEO_WORDS:
        getattr(pw, word)
    assert len(calls) == 4


def test_a_cap_hit_enumerates_nothing_and_one_enumeration_serves_every_cap(monkeypatch):
    # the cap is decided by a count before anything is enumerated: the
    # opens a space enumerates once serve every cap at or above their
    # count, and a refused build or sobriety check enumerates nothing
    subject = FiniteSpace(tuple(f"p{i}" for i in range(5)), (1, 2, 4, 8, 17))
    for sp in (antichain(3), chain(4), subject):
        opens = sp.opens(DEFAULT_LIMITS)
        for cap in range(len(opens), (1 << sp.n) + 2):
            assert sp.opens(DEFAULT_LIMITS.with_cap(cap)) is opens, (sp, cap)
    small = Limits(max_construction_points=5)
    inner = lower_powerspace(antichain(2), small)

    def refuse(*args):
        raise AssertionError("a refused build enumerated a family")

    monkeypatch.setattr(core, "enumerate_upper_sets", refuse)
    with pytest.raises(PowerspaceTooLarge, match=r"^O\(X\) would have more than 31 points$"):
        open_lattice(antichain(5), Limits(max_construction_points=31))
    with pytest.raises(PowerspaceTooLarge, match=r"^A\(A\(X\)\) would have more than 5 points$"):
        lower_powerspace(inner, small)
    with pytest.raises(PowerspaceTooLarge, match=r"^more than 31 upper sets$"):
        checkers.is_sober(antichain(5), Limits(max_construction_points=31))


def test_the_cap_counts_once_and_only_where_the_subsets_could_exceed_it(monkeypatch):
    # the 3-point antichain has 8 opens, as many as its subsets
    counted = []
    count_upper_sets = core.count_upper_sets

    def counting(space):
        counted.append(space.n)
        return count_upper_sets(space)

    monkeypatch.setattr(core, "count_upper_sets", counting)
    sp = antichain(3)
    assert len(sp.opens(Limits(max_construction_points=8))) == 8
    assert counted == []
    for _ in range(2):
        with pytest.raises(PowerspaceTooLarge, match=r"^more than 7 upper sets$"):
            sp.opens(Limits(max_construction_points=7))
    assert counted == [3]


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
        pw = Powers(sp)
        assert monad_laws(kind, pw).holds
        assert monad_preimage_identities(kind, pw).holds


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
        assert algebra_laws(kind, Powers(sp)).holds


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


def test_dot_labels_escape_backslashes_and_quotes():
    # a backslash is escaped before a quote, so neither ends the DOT string
    x = antichain(2, names=("a\\", 'b"'))

    def labels(dot):
        return [line for line in dot.splitlines() if "[label=" in line]

    assert labels(to_dot(x)) == [r'  n0 [label="a\\"];', r'  n1 [label="b\""];']
    assert labels(to_dot(upper_powerspace(x))) == [
        r'  n0 [label="{}"];',
        r'  n1 [label="{a\\}"];',
        r'  n2 [label="{b\"}"];',
        r'  n3 [label="{a\\,b\"}"];',
    ]


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
    towers = [Powers(sp) for sp in labelled_spaces(3)]
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


def test_lift_tables_match_hulls_of_images_and_preimages():
    # the plain tables the naturality squares compare: A(f) takes an extent
    # to the closure of its image, K(f) to the saturation, and O(f) an open
    # to its preimage, which shares no code with the transpose that lift_table
    # reads the fibers from
    towers = [Powers(sp) for sp in labelled_spaces(3)]
    lifted = 0
    for px in towers:
        for py in towers:
            y = py.base
            for f in iter_continuous_maps(px.base, y):
                lifted += 1
                images = [_literal_image(f, e) for e in px.A.extents]
                assert [py.A.extents[v] for v in lift_table(f.table, px.A, py.A)] == list(map(y.closure_mask, images))
                images = [_literal_image(f, e) for e in px.K.extents]
                assert [py.K.extents[v] for v in lift_table(f.table, px.K, py.K)] == list(map(y.saturation_mask, images))
                preimages = list(map(f.preimage_mask, py.O.extents))
                assert [px.O.extents[v] for v in lift_table(f.table, py.O, px.O)] == preimages
    assert lifted == 4842


def _lift(word, table, px, py):
    """The table of the lift along word of the map px.base -> py.base with
    the given table, by lift_table from the lift along word's tail."""
    if not word:
        return tuple(table)
    src, dst = (py, px) if word.count("O") % 2 else (px, py)
    return lift_table(_lift(word[1:], table, px, py), getattr(src, word), getattr(dst, word))


def test_lifts_preserve_composition_and_identities():
    # the naturality squares are decided on generating maps, which is
    # sound only if every lift the squares read is a functor
    words = ("K", "A", "O", "AK", "KA", "OO", "OK", "AO", "OA", "KO")
    towers = [Powers(sp) for sp in enumerate_spaces(2)]
    pairs = 0
    for px, py, pz in product(towers, repeat=3):
        for f in iter_continuous_maps(px.base, py.base):
            for g in iter_continuous_maps(py.base, pz.base):
                pairs += 1
                gf = compose(g, f).table
                for word in words:
                    lf, lg = _lift(word, f.table, px, py), _lift(word, g.table, py, pz)
                    # an odd number of O's turns the arrows, and the order of composition, around
                    after = tuple(lf[v] for v in lg) if word.count("O") % 2 else tuple(lg[v] for v in lf)
                    assert _lift(word, gf, px, pz) == after
    assert pairs == 165  # the sum over Y of the maps into Y times the maps out of Y
    for pw in towers:
        for word in words:
            assert _lift(word, range(pw.base.n), pw, pw) == tuple(range(getattr(pw, word).space.n))


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
    # A(X), K(X) and O(X) of the 2-point antichain have 4 points, inside
    # the cap; A(A(X)), K(K(X)), A(O(X)) and K(O(X)) have 6, which is not
    small = Limits(max_construction_points=5)
    for law in (monad_laws, algebra_laws):
        for kind in ("A", "K"):
            pw = Powers(antichain(2), small)
            assert getattr(pw, kind).space.n == pw.O.space.n == 4
            with pytest.raises(PowerspaceTooLarge):
                law(kind, pw)


def test_law_checks_enumerate_no_families(monkeypatch):
    # the lower sets of A(A(X)) over the 4-point antichain number
    # 1,403,305,876; once T(T(X)) and T(O(X)) are built, the laws
    # enumerate no lower or upper set of anything
    pw = Powers(antichain(4))
    pw.AA, pw.KK, pw.AO, pw.KO

    def refuse(*args):
        raise AssertionError("a law check enumerated a family")

    monkeypatch.setattr(core, "enumerate_upper_sets", refuse)
    for kind in ("A", "K"):
        assert monad_laws(kind, pw).holds
        assert algebra_laws(kind, pw).holds


def test_associativity_pass_matches_literal_square():
    # the mult tables of A(A(X)) and K(K(X)) and the structure maps of
    # A(O(X)) and K(O(X)), over every labelled space of at most 3 points,
    # then every table with one entry changed: the pass rejects each, and
    # no changed table passes the unit law, monotonicity and the literal
    # square together, so the overall verdicts agree
    changed = literal_rejects = 0
    for sp in labelled_spaces(3):
        pw = Powers(sp)
        for t, struct in (
            (pw.AA, monad_mult(pw.AA)),
            (pw.KK, monad_mult(pw.KK)),
            (pw.AO, structure_map(pw.AO)),
            (pw.KO, structure_map(pw.KO)),
        ):
            assert literal_associativity(t, struct) is None
            assert powerspaces._first_point_apart(t, struct) is None
            eta = monad_unit(t)
            for a, v in enumerate(struct.table):
                for w in range(struct.codomain.n):
                    if w == v:
                        continue
                    bad = SpaceMap(t.space, struct.codomain, struct.table[:a] + (w,) + struct.table[a + 1 :])
                    earlier = all(bad.table[e] == c for c, e in enumerate(eta.table)) and check_continuous(bad).holds
                    literal = literal_associativity(t, bad) is None
                    generated = powerspaces._first_point_apart(t, bad) is None
                    assert not generated
                    assert (earlier and literal) == (earlier and generated)
                    changed += 1
                    literal_rejects += not literal
    assert (changed, literal_rejects) == (2940, 2460)


def test_cover_folds_match_literal_unions_and_intersections():
    # random parts, wider than any base, so a wrong step shows in some bit
    rng = random.Random(20171)
    subjects = [Powers(sp) for sp in labelled_spaces(3)]
    subjects.append(Powers(FiniteSpace(tuple(f"p{i}" for i in range(5)), (1, 2, 4, 8, 17))))
    folded = 0
    for pw in subjects:
        for word in HOMEO_WORDS:
            cs = getattr(pw, word)
            for _ in range(3):
                parts = [rng.getrandbits(64) for _ in range(cs.base.n)]
                full = rng.getrandbits(64) | 1 << 64
                assert cs.unions(parts) == literal_unions(cs, parts), (pw.base, word)
                assert cs.intersections(parts, full) == literal_intersections(cs, parts, full), (pw.base, word)
            folded += 1
    assert folded == 250
    lens = Powers(S).L
    with pytest.raises(ValueError, match=re.escape("L(X)")):
        lens.unions([1, 2])
    with pytest.raises(ValueError, match=re.escape("L(X)")):
        lens.intersections([1, 2], 3)


def test_points_of_names_the_construction():
    a_s = Powers(S).A
    assert a_s.points_of(a_s.extents) == tuple(range(a_s.space.n))
    assert a_s.points_of([]) == ()
    with pytest.raises(ValueError, match=re.escape("2 is not a point of A(X)")):
        a_s.points_of([0b11, 0b10])
    with pytest.raises(ValueError, match=re.escape("2 is not a point of A(X)")):
        a_s.point_of(0b10)
