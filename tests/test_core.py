import pytest
from hypothesis import given, settings, strategies as st

from powerspace.core import (
    FiniteSpace,
    PtSet,
    SpaceMap,
    antichain,
    bits,
    chain,
    check_continuous,
    closure,
    compose,
    count_upper_sets,
    empty_space,
    enumerate_spaces,
    enumerate_upper_sets,
    identity_map,
    interior,
    is_monotone,
    iter_continuous_maps,
    mask_of,
    saturation,
    sierpinski,
    space_from_json,
    space_from_opens,
    space_from_poset,
    space_to_json,
    subspace,
    space_product,
)
from powerspace.errors import CycleDetected, LimitExceeded, NotT0


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


def test_continuity_equals_monotone_and_full_open_preimages():
    spaces = enumerate_spaces(3)
    for dom in spaces:
        for cod in spaces:
            if cod.n == 0 and dom.n > 0:
                continue
            from itertools import product
            tables = product(range(max(cod.n, 1)), repeat=dom.n) if cod.n else [()]
            for table in tables:
                f = SpaceMap(dom, cod, tuple(table))
                by_check = check_continuous(f).holds
                by_monotone = is_monotone(f)
                by_opens = all(dom.is_open(f.preimage_mask(u)) for u in cod.opens())
                assert by_check == by_monotone == by_opens


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
        from powerspace.core import canonical_order_key

        seen.add(canonical_order_key(up))
    return seen


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


def test_enumerate_spaces_labeled_counts():
    labeled = [s for s in enumerate_spaces(3, up_to_iso=False) if s.n == 3]
    assert len(labeled) == 19  # labeled posets on 3 points


def test_enumerate_limit():
    with pytest.raises(LimitExceeded):
        enumerate_spaces(7)


def test_empty_space_everywhere():
    e = empty_space()
    assert e.n == 0
    assert e.opens() == (0,)
    assert enumerate_spaces(0) == (e,)


def test_subspace_and_product():
    s = sierpinski()
    sub, emb = subspace(s, 0b10)
    assert sub.n == 1 and emb.table == (1,)
    assert check_continuous(emb).holds
    prod, pairs = space_product(s, s)
    assert prod.n == 4
    assert prod.leq(pairs.index((0, 0)), pairs.index((1, 1)))
    assert not prod.leq(pairs.index((1, 0)), pairs.index((0, 1)))


def test_json_round_trip():
    for sp in enumerate_spaces(3):
        again = space_from_json(space_to_json(sp))
        assert again.up == sp.up and again.names == sp.names
    s = space_from_json({"points": ["a", "b"], "opens": [[0]]})
    assert s.up == (0b01, 0b11)


def test_compose_and_identity():
    s = sierpinski()
    d = antichain(2)
    f = SpaceMap(d, s, (0, 1))
    assert compose(identity_map(s), f).table == f.table
    with pytest.raises(ValueError):
        compose(f, f)


def test_iter_continuous_maps_counts():
    s = sierpinski()
    d = antichain(2)
    assert len(list(iter_continuous_maps(d, s))) == 4
    assert len(list(iter_continuous_maps(s, s))) == 3  # monotone self-maps of a 2-chain
    e = empty_space()
    assert len(list(iter_continuous_maps(e, s))) == 1
    assert len(list(iter_continuous_maps(s, e))) == 0


@given(small_spaces())
@settings(max_examples=80, deadline=None)
def test_upper_set_enumeration_matches_filter(space):
    dfs = enumerate_upper_sets(space.up)
    filtered = [m for m in range(space.full_mask + 1) if space.is_upper(m)]
    assert dfs == filtered
