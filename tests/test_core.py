import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from powerspace.core import (
    FiniteSpace,
    PtSet,
    SpaceMap,
    antichain,
    bits,
    canonical_relabeling,
    chain,
    check_continuous,
    closure,
    compose,
    count_upper_sets,
    empty_space,
    enumerate_spaces,
    enumerate_upper_sets,
    generating_maps,
    identity_map,
    interior,
    intersection_of,
    is_monotone,
    iter_continuous_maps,
    mask_of,
    neighborhoods,
    saturation,
    set_label,
    sierpinski,
    space_from_json,
    space_from_opens,
    space_from_poset,
    space_to_json,
    subspace,
    transpose,
    union_of,
)
from oracles import close_family, labelled_spaces, least_relabeling, literal_transpose, relabel, row_union_covers
from powerspace.errors import CycleDetected, LimitExceeded, NotT0
from powerspace.powerspaces import Powers, convex_powerspace, lower_powerspace, open_lattice, upper_powerspace

CONSTRUCTIONS = (lower_powerspace, upper_powerspace, convex_powerspace, open_lattice)


@st.composite
def small_spaces(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    covers = draw(st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))).filter(lambda p: p[0] < p[1]),
        max_size=6,
    )) if n else []
    return space_from_poset([f"p{i}" for i in range(n)], covers)


def test_sierpinski_from_opens():
    s = space_from_opens(("bot", "top"), [{1}])
    assert s.up == (0b11, 0b10)
    assert s.opens() == (0, 2, 3)


def test_discrete_two_points():
    d = space_from_opens(("a", "b"), [{0}, {1}])
    assert d.up == (0b01, 0b10)


def test_indiscrete_pair_rejected():
    with pytest.raises(NotT0) as exc:
        space_from_opens(("a", "b"), [])
    assert exc.value.pair == ("a", "b")


def test_poset_chain_opens():
    c = chain(3)
    assert c.opens() == (0, 0b100, 0b110, 0b111)
    assert len(antichain(3).opens()) == 8


def test_poset_cycle_rejected():
    with pytest.raises(CycleDetected):
        space_from_poset(("x", "y"), [("x", "y"), ("y", "x")])


def test_poset_rejects_a_negative_index():
    # Python's negative indexing would read -1 as b and build b <= a
    with pytest.raises(ValueError, match="-1 is not a point"):
        space_from_poset(["a", "b"], [(-1, 0)])


def test_poset_rejects_an_index_past_the_last_point():
    with pytest.raises(ValueError, match="5 is not a point"):
        space_from_poset(["a", "b"], [(0, 5)])


def test_poset_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="'c' is not a point"):
        space_from_poset(["a", "b"], [("a", "c")])


def test_closure_saturation_interior_on_sierpinski():
    s = sierpinski()
    assert closure(s, PtSet(s, 0b10)).mask == 0b11
    assert saturation(s, PtSet(s, 0b01)).mask == 0b11
    d = antichain(2, names=("a", "b"))
    one = PtSet(d, 0b01)
    assert closure(d, one).mask == saturation(d, one).mask == interior(d, one).mask == 0b01


@given(small_spaces(), st.integers(min_value=0))
@settings(max_examples=150, deadline=None)
def test_hull_operators_extremal(space, raw):
    mask = raw % (space.full_mask + 1)
    s = PtSet(space, mask)
    cl = closure(space, s).mask
    sat = saturation(space, s).mask
    intr = interior(space, s).mask
    lowers = enumerate_upper_sets(space.down)
    uppers = enumerate_upper_sets(space.up)
    # least closed superset, least saturated superset, greatest open subset
    assert cl == min((c for c in lowers if not (mask & ~c)), key=lambda c: c.bit_count())
    assert sat == min((u for u in uppers if not (mask & ~u)), key=lambda u: u.bit_count())
    assert intr == max((u for u in uppers if not (u & ~mask)), key=lambda u: u.bit_count())


def test_set_label_matches_the_literal_join():
    for sp in labelled_spaces(4):
        for m in range(sp.full_mask + 1):
            literal = "{" + ",".join(sp.names[i] for i in range(sp.n) if m >> i & 1) + "}"
            assert set_label(sp.names, m) == literal, (sp, m)


@given(small_spaces())
@settings(max_examples=100, deadline=None)
def test_order_opens_round_trip(space):
    # re-deriving the space from its own opens gives the same order
    rebuilt = space_from_opens(space.names, space.opens())
    assert rebuilt.up == space.up


def test_continuity_examples():
    s = sierpinski()
    assert check_continuous(identity_map(s)).holds
    swap = SpaceMap(s, s, (1, 0))
    v = check_continuous(swap)
    assert not v.holds and v.witness.mask == 0b10
    d = antichain(2, names=("a", "b"))
    for table in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert check_continuous(SpaceMap(d, s, table)).holds


def literal_preimage(f, mask):
    return mask_of(i for i, v in enumerate(f.table) if mask >> v & 1)


def literal_is_upper(space, mask):
    return all(mask >> j & 1 for i in bits(mask) for j in range(space.n) if space.leq(i, j))


def literal_monotone(f):
    n = f.domain.n
    return all(f.codomain.leq(f(i), f(j)) for i in range(n) for j in range(n) if f.domain.leq(i, j))


def all_maps(dom, cod):
    return (SpaceMap(dom, cod, table) for table in product(range(cod.n), repeat=dom.n))


def _step_tables(rng, dom, cod, count):
    """Monotone tables: a chain y0 <= y1 <= y2 of cod over nested opens V2 <= V1 of dom."""
    opens = dom.opens()
    for _ in range(count):
        y0 = rng.randrange(cod.n)
        y1 = rng.choice(list(bits(cod.up[y0])))
        y2 = rng.choice(list(bits(cod.up[y1])))
        a, b = rng.choice(opens), rng.choice(opens)
        yield tuple(y2 if (a & b) >> i & 1 else y1 if (a | b) >> i & 1 else y0 for i in range(dom.n))


def test_edge_monotonicity_matches_literal_on_constructions():
    rng = random.Random(11)
    outcomes = {True: 0, False: 0}
    bases = [sp for sp in labelled_spaces(3) if sp.n == 3]
    assert len(bases) == 19
    for base in bases:
        spaces = [build(base).space for build in CONSTRUCTIONS]
        for dom, cod in product(spaces, repeat=2):
            tables = list(_step_tables(rng, dom, cod, 4))
            for t in list(tables):
                k = rng.randrange(dom.n)
                tables.append(t[:k] + (rng.randrange(cod.n),) + t[k + 1:])  # one entry changed
            tables += [tuple(rng.randrange(cod.n) for _ in range(dom.n)) for _ in range(4)]
            for t in tables:
                f = SpaceMap(dom, cod, t)
                expected = literal_monotone(f)
                assert is_monotone(f) == check_continuous(f).holds == expected
                outcomes[expected] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_continuity_equals_monotone_and_full_open_preimages():
    spaces = enumerate_spaces(3)
    for dom in spaces:
        for cod in spaces:
            for f in all_maps(dom, cod):
                by_check = check_continuous(f).holds
                by_pairs = literal_monotone(f)
                by_opens = all(literal_is_upper(dom, literal_preimage(f, u)) for u in cod.opens())
                assert by_check == is_monotone(f) == by_pairs == by_opens


def test_preimage_mask_matches_literal_preimage():
    rng = random.Random(0)
    cases = [(0, ())]  # empty domain into the empty space
    for cod_n in (1, 2, 3, 8, 70):
        cases.append((cod_n, ()))  # empty domain
        cases.append((cod_n, tuple(rng.sample(range(cod_n), cod_n))))  # bijection
        for dom_n in (1, 2, 5, 90):
            cases.append((cod_n, (cod_n - 1,) * dom_n))  # constant
            cases.append((cod_n, tuple(rng.randrange(cod_n) for _ in range(dom_n))))
    assert any(1 < len(set(table)) < len(table) for _, table in cases)  # neither injective nor constant
    for cod_n, table in cases:
        f = SpaceMap(antichain(len(table)), antichain(cod_n), table)
        masks = [0, (1 << cod_n) - 1, 1 << cod_n, (1 << (cod_n + 9)) - 1]  # the last two reach above cod_n
        masks += [rng.getrandbits(cod_n + 9) for _ in range(30)]
        for mask in masks:
            assert f.preimage_mask(mask) == literal_preimage(f, mask), (cod_n, table, mask)


def test_discontinuity_witness_is_first_bad_subbasic_open():
    # oracle: the literal subbasic scan, the first y whose up(y) has a non-open preimage
    spaces = labelled_spaces(3)
    failing = 0
    for dom in spaces:
        for cod in spaces:
            for f in all_maps(dom, cod):
                v = check_continuous(f)
                bad = [y for y in range(cod.n) if not literal_is_upper(dom, literal_preimage(f, cod.up[y]))]
                if bad:
                    failing += 1
                    assert not v.holds
                    assert v.witness == PtSet(cod, cod.up[bad[0]])
                    assert v.info == {"checker": "check_continuous"}
                else:
                    assert v.holds and v.info == {"checker": "check_continuous", "subbasics": cod.n}
    assert failing > 0


def brute_force_posets(n):
    """Oracle: filter all reflexive relations for partial orders."""
    from itertools import product as iproduct

    strict_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    seen = set()
    for choice in iproduct([False, True], repeat=len(strict_pairs)):
        rel = {(i, i) for i in range(n)}
        rel.update(p for p, c in zip(strict_pairs, choice) if c)
        if any((j, i) in rel for (i, j) in rel if i != j):
            continue
        ok = all((i, l) in rel for (i, j) in rel for (k, l) in rel if j == k)
        if not ok:
            continue
        up = tuple(mask_of(j for j in range(n) if (i, j) in rel) for i in range(n))
        seen.add(canonical_relabeling(up)[0])
    return seen


def test_canonical_relabeling_is_the_least_of_all_permutations():
    # the top-down search against the n! minimum, rows and permutation:
    # every labelled space of at most 5 points, the 406 representatives
    # of at most 6 and each 6-point one relabelled in reverse
    reps = enumerate_spaces(6)
    reversed_six = [relabel(sp.up, range(5, -1, -1)) for sp in reps if sp.n == 6]
    ups = [sp.up for sp in (*labelled_spaces(5), *reps)] + reversed_six
    assert len(ups) == 4474 + 406 + 318
    for up in ups:
        assert canonical_relabeling(up) == least_relabeling(up), up


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 16)])
def test_enumerate_spaces_against_brute_force(n, count):
    exact = [s for s in enumerate_spaces(n) if s.n == n]
    assert len(exact) == count
    if n <= 3:
        assert len(brute_force_posets(n)) == count


@pytest.mark.parametrize("n,dedekind", [(0, 2), (1, 3), (2, 6), (3, 20), (4, 168), (5, 7581)])
def test_count_upper_sets_gives_dedekind_numbers(n, dedekind):
    # the upper sets of the Boolean lattice A(antichain(n)) number M(n), OEIS A000372
    from powerspace.powerspaces import lower_powerspace

    assert count_upper_sets(lower_powerspace(antichain(n)).space) == dedekind


def test_count_upper_sets_against_subset_filter():
    for sp in enumerate_spaces(4):
        brute = sum(1 for m in range(sp.full_mask + 1) if sp.is_upper(m))
        assert count_upper_sets(sp) == brute == len(enumerate_upper_sets(sp.up))


def test_count_upper_sets_on_a_chain_longer_than_the_recursion_limit():
    # one split per point: the recursive split raised RecursionError here
    assert count_upper_sets(chain(2000)) == 2001


def test_enumerate_spaces_labeled_counts():
    labeled = [s for s in labelled_spaces(3) if s.n == 3]
    assert len(labeled) == 19  # labeled posets on 3 points


def test_enumerate_limit():
    with pytest.raises(LimitExceeded):
        enumerate_spaces(7)


def test_empty_space_everywhere():
    e = empty_space()
    assert e.n == 0
    assert e.opens() == (0,)
    assert enumerate_spaces(0) == (e,)


def test_subspace_and_its_inclusion():
    s = sierpinski()
    sub, emb = subspace(s, 0b10)
    assert sub.n == 1 and emb.table == (1,)
    assert check_continuous(emb).holds


@pytest.mark.parametrize("mask", [0b100, -1])
def test_subspace_rejects_a_mask_outside_the_space(mask):
    with pytest.raises(ValueError, match=rf"^mask {mask} is not a subset of the 2 points$"):
        subspace(sierpinski(), mask)


def test_json_round_trip():
    for sp in enumerate_spaces(3):
        again = space_from_json(space_to_json(sp))
        assert again.up == sp.up and again.names == sp.names
    s = space_from_json({"points": ["a", "b"], "opens": [[0]]})
    assert s.up == (0b01, 0b11)


def test_space_json_with_both_order_and_opens_is_refused():
    doc = {"points": ["a", "b"], "order": [["a", "b"]], "opens": [[0]]}
    with pytest.raises(ValueError, match=r"^space JSON takes either 'order' or 'opens', not both$"):
        space_from_json(doc)


def test_compose_and_identity():
    s = sierpinski()
    d = antichain(2)
    f = SpaceMap(d, s, (0, 1))
    assert compose(identity_map(s), f).table == f.table
    with pytest.raises(ValueError):
        compose(f, f)


@pytest.mark.parametrize("table, message", [
    ((0,), "table length must match the domain"),
    ((0, -1), "table entry outside the codomain"),
    ((0, 2), "table entry outside the codomain"),
])
def test_space_map_rejects_each_violation(table, message):
    with pytest.raises(ValueError, match=message):
        SpaceMap(sierpinski(), antichain(2), table)


def test_space_map_accepts_tables_in_range():
    assert SpaceMap(sierpinski(), antichain(2), (1, 0)).table == (1, 0)
    assert SpaceMap(empty_space(), sierpinski(), ()).table == ()
    assert SpaceMap(empty_space(), empty_space(), ()).table == ()
    with pytest.raises(ValueError, match="table length"):
        SpaceMap(sierpinski(), empty_space(), ())


def test_iter_continuous_maps_counts():
    s = sierpinski()
    d = antichain(2)
    assert len(list(iter_continuous_maps(d, s))) == 4
    assert len(list(iter_continuous_maps(s, s))) == 3  # monotone self-maps of a 2-chain
    e = empty_space()
    assert len(list(iter_continuous_maps(e, s))) == 1
    assert len(list(iter_continuous_maps(s, e))) == 0


def _closure_under_compose(maps) -> set:
    """Every composite of the maps, as (domain rows, codomain rows,
    table): each new map extended on the left by every map out of its
    codomain, until nothing new appears."""
    out_of: dict = {}
    for g in maps:
        out_of.setdefault(g.domain.up, []).append(g)
    seen = {(g.domain.up, g.codomain.up, g.table) for g in maps}
    todo = list(maps)
    while todo:
        f = todo.pop()
        for g in out_of.get(f.codomain.up, ()):
            gf = compose(g, f)
            key = (gf.domain.up, gf.codomain.up, gf.table)
            if key not in seen:
                seen.add(key)
                todo.append(gf)
    return seen


@pytest.mark.parametrize(
    "max_points, include_empty, generators, maps", [(3, False, 59, 476), (3, True, 61, 485), (4, False, 311, 19702)]
)
def test_generating_maps_compose_to_every_continuous_map(max_points, include_empty, generators, maps):
    spaces = [sp for sp in enumerate_spaces(max_points) if include_empty or sp.n]
    gens = generating_maps(spaces)
    assert len(gens) == generators
    assert all(g.domain in spaces and g.codomain in spaces for g in gens)
    assert gens[0] == identity_map(spaces[0])
    every = {(f.domain.up, f.codomain.up, f.table) for x in spaces for y in spaces for f in iter_continuous_maps(x, y)}
    assert len(every) == maps
    assert _closure_under_compose(gens) == every


def test_generating_maps_merge_only_comparable_points():
    kinds = {"automorphism": 0, "deletion": 0, "merge": 0, "extension": 0}
    for g in generating_maps([sp for sp in enumerate_spaces(3) if sp.n]):
        dom, cod, t = g.domain, g.codomain, g.table
        if dom.n > cod.n:
            kinds["merge"] += 1
            a, b = (x for x in range(dom.n) if t.count(t[x]) == 2)
            assert dom.up[a] >> b & 1 or dom.up[b] >> a & 1
        elif dom.n < cod.n:
            kinds["deletion"] += 1
        else:
            kinds["automorphism" if dom == cod else "extension"] += 1
    assert kinds == {"automorphism": 16, "deletion": 19, "merge": 8, "extension": 16}

@given(small_spaces())
@settings(max_examples=80, deadline=None)
def test_upper_set_enumeration_matches_filter(space):
    dfs = enumerate_upper_sets(space.up)
    filtered = [m for m in range(space.full_mask + 1) if space.is_upper(m)]
    assert dfs == filtered


@pytest.mark.parametrize("names, up, message", [
    (("a", "b"), (0b01,), "equal length"),
    (("a", "a"), (0b01, 0b10), "pairwise distinct"),
    (("a", "b"), (0b101, 0b10), "out of range"),
    (("a", "b"), (0b01, 0b01), "reflexive"),
    (("a", "b", "c"), (0b011, 0b110, 0b100), "transitive"),
    (("a", "b"), (0b11, 0b11), "antisymmetric"),
])
def test_finite_space_rejects_each_violation(names, up, message):
    with pytest.raises(ValueError, match=message):
        FiniteSpace(names, up)


def _literal_violation(up: tuple[int, ...]) -> str | None:
    """The first violated partial-order axiom, read off pairs and triples of points."""
    n = len(up)

    def leq(i, j):
        return up[i] >> j & 1

    if not all(leq(i, i) for i in range(n)):
        return "reflexive"
    if any(leq(i, j) and leq(j, k) and not leq(i, k) for i, j, k in product(range(n), repeat=3)):
        return "transitive"
    if any(i != j and leq(i, j) and leq(j, i) for i, j in product(range(n), repeat=2)):
        return "antisymmetric"
    return None


def _relations(n: int, reflexive: bool):
    """Every relation on n points as up rows; with reflexive, only those with the diagonal set."""
    free = [(i, j) for i in range(n) for j in range(n) if not (reflexive and i == j)]
    for chosen in product((0, 1), repeat=len(free)):
        up = [1 << i if reflexive else 0 for i in range(n)]
        for (i, j), bit in zip(free, chosen):
            up[i] |= bit << j
        yield tuple(up)


@pytest.mark.parametrize("n, reflexive, total", [(3, False, 512), (4, True, 4096)])
def test_finite_space_validation_matches_pairwise_definition(n, reflexive, total):
    names = tuple(f"p{i}" for i in range(n))
    seen = accepted = 0
    for up in _relations(n, reflexive):
        seen += 1
        _assert_matches_row_union(up)
        expected = _literal_violation(up)
        if expected is None:
            accepted += 1
            assert FiniteSpace(names, up).up == up
        else:
            # range and reflexivity over all rows, then transitivity, then antisymmetry
            with pytest.raises(ValueError, match=expected):
                FiniteSpace(names, up)
    assert seen == total
    assert accepted == {3: 19, 4: 219}[n]  # labelled posets, OEIS A001035


def _outcome(validate, up) -> tuple[str | None, list | None]:
    """(None, covers) when validate accepts up, (message, None) when it
    raises ValueError."""
    try:
        return None, validate(up)
    except ValueError as e:
        return str(e), None


def _assert_matches_row_union(up) -> str | None:
    """FiniteSpace and the row-union oracle agree on acceptance, message
    and covers; returns the message, None when up is accepted."""
    names = tuple(f"p{i}" for i in range(len(up)))
    got = _outcome(lambda u: FiniteSpace(names, u).covers(), up)
    assert got == _outcome(row_union_covers, up)
    return got[0]


HOMEO_SUBJECT = FiniteSpace(tuple(f"p{i}" for i in range(5)), (1, 2, 4, 8, 17))


def test_validation_matches_row_union_oracle_on_constructions():
    pw = Powers(HOMEO_SUBJECT)
    for word in ("A", "K", "O", "AK", "KA", "OO", "AO", "OK", "KO", "OA"):
        assert _assert_matches_row_union(getattr(pw, word).space.up) is None


def test_validation_matches_row_union_oracle_on_single_bit_flips():
    up = Powers(HOMEO_SUBJECT).AK.space.up
    rng = random.Random(2017)
    messages = []
    for _ in range(200):
        i, j = rng.randrange(len(up)), rng.randrange(len(up))
        flipped = up[:i] + (up[i] ^ 1 << j,) + up[i + 1:]
        messages.append(_assert_matches_row_union(flipped))
    assert None in messages and "order must be transitive" in messages


def test_minimal_points_match_literal_loop():
    for sp in labelled_spaces(4):
        for mask in range(sp.full_mask + 1):
            literal = mask_of(
                i for i in bits(mask) if not any(j != i and sp.leq(j, i) for j in bits(mask))
            )
            assert sp.minimal_points(mask) == literal


def test_open_covers_are_the_pairs_of_opens_one_point_apart():
    # every pair of opens one point apart, listed once with that point as
    # piv, by hi then lo; spaces' own opens are the literal side
    for sp in (*labelled_spaces(4), antichain(5)):
        opens = sp.opens()
        literal = [
            (h, lo, (u ^ v).bit_length() - 1)
            for h, u in enumerate(opens)
            for lo, v in enumerate(opens)
            if v | u == u and (u ^ v).bit_count() == 1
        ]
        hi, lo, piv = sp.open_covers
        assert list(zip(hi, lo, piv)) == literal, sp


def _literal_covers(space: FiniteSpace) -> list[tuple[int, int]]:
    n, leq = space.n, space.leq
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and leq(i, j) and not any(k not in (i, j) and leq(i, k) and leq(k, j) for k in range(n))
    ]


def test_covers_match_literal_definition():
    spaces = list(labelled_spaces(4))
    for sp in labelled_spaces(3):
        for builder in CONSTRUCTIONS:
            spaces.append(builder(sp).space)
    assert len(spaces) == 243 + 4 * 24
    for sp in spaces:
        assert sp.covers() == _literal_covers(sp)


def _relabel_covers(space: FiniteSpace) -> list[tuple[int, int]]:
    """Covers along a linear extension, sharing no step with the validator.

    Points sorted by the size of up[i], descending, form a linear
    extension.  Each row is relabeled by rank along it, so the lowest bit
    of a row is its point and every other bit ranks higher.  Of the strict
    upper set of i, the lowest ranked point j is a cover, since a point
    strictly between would rank lower; removing up[j] leaves only points
    not above j, whose lowest is again a cover, and no cover is removed.
    """
    n = space.n
    order = sorted(range(n), key=lambda i: -space.up[i].bit_count())
    rank = SpaceMap(antichain(n), space, tuple(order))  # bit r of a preimage is bit order[r]
    ranked = [rank.preimage_mask(m) for m in space.up]
    out = []
    for i, rest in enumerate(ranked):
        rest &= rest - 1
        found = []
        while rest:
            j = order[(rest & -rest).bit_length() - 1]
            found.append(j)
            rest &= ~ranked[j]
        out.extend((i, j) for j in sorted(found))
    return out


def test_covers_match_relabel_oracle_on_large_constructions():
    k = upper_powerspace(antichain(4))
    for build, points, edges in ((convex_powerspace, 3938, 17144), (lower_powerspace, 168, 454)):
        sp = build(k).space
        got = sp.covers()
        assert (sp.n, len(got)) == (points, edges)
        assert got == _relabel_covers(sp) == FiniteSpace(sp.names, sp.up).covers()
        assert _assert_matches_row_union(sp.up) is None


def test_bits_match_literal_scan():
    rng = random.Random(5)
    masks = [0, 1, 2, 1 << 4999, (1 << 5000) - 1]
    masks += [rng.getrandbits(rng.randint(1, 5000)) for _ in range(200)]
    for m in masks:
        expected = [i for i in range(m.bit_length()) if m >> i & 1]
        assert list(bits(m)) == expected
        if m:
            assert next(bits(m)) == (m & -m).bit_length() - 1


def test_union_and_intersection_match_literal_loops():
    rng = random.Random(7)
    for size in (0, 1, 5, 64, 700):
        masks = [rng.getrandbits(300) for _ in range(size)]
        full = (1 << 300) - 1
        for sel in [0, (1 << size) - 1] + [rng.getrandbits(size) for _ in range(20)]:
            picked = [masks[i] for i in range(size) if sel >> i & 1]
            union, meet = 0, full
            for m in picked:
                union |= m
                meet &= m
            assert union_of(masks, sel) == union
            assert intersection_of(masks, sel, full) == meet
            # bits of sel beyond the masks pick nothing
            assert union_of(masks, sel | 1 << size + 3) == union


def test_transpose_matches_literal_loop():
    rng = random.Random(19)
    cases = [([], 0), ([], 5), ([0, 0], 0), ([0, 0, 0], 4), ([0b1011], 4), ([1 << 6, 0, 1 << 6 | 1], 7)]
    for n in range(1, 71):
        top = 1 << n - 1
        cases.append(([top] * rng.randint(1, 5), n))
        cases.extend(([rng.getrandbits(n) | top * rng.randint(0, 1) for _ in range(rng.randint(0, 80))], n)
                     for _ in range(3))
    for rows, n in cases:
        assert transpose(rows, n) == literal_transpose(rows, n), (rows, n)


def test_down_matches_literal_transpose():
    for sp in labelled_spaces(4):
        assert sp.down == literal_transpose(sp.up, sp.n), sp
    pw = Powers(FiniteSpace(tuple(f"p{i}" for i in range(5)), (1, 2, 4, 8, 17)))
    for word in ("A", "K", "O", "AK", "KA", "OO", "AO", "OK", "KO", "OA"):
        sp = getattr(pw, word).space
        assert sp.down == literal_transpose(sp.up, sp.n), word


def test_neighborhoods_decide_generated_family_equality():
    # two seed families close to the same family under finite unions and
    # intersections exactly when their least neighborhoods agree
    rng = random.Random(20170)
    outcomes = {True: 0, False: 0}
    for sp in labelled_spaces(4):
        opens = sp.opens()
        for _ in range(20):
            s1, s2 = (rng.sample(opens, rng.randint(0, len(opens))) for _ in range(2))
            by_closure = close_family(s1, sp.full_mask) == close_family(s2, sp.full_mask)
            assert (neighborhoods(s1, sp.n) == neighborhoods(s2, sp.n)) == by_closure, (sp, s1, s2)
            outcomes[by_closure] += 1
    assert outcomes[True] and outcomes[False]
