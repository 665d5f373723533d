from itertools import product

import pytest

from powerspace import checkers
from powerspace.canonical import Powers
from powerspace.checkers import (
    consonance_equivalence,
    irreducible_closed_sets,
    is_co_consonant,
    is_consonant,
    is_sober,
    is_wilker,
    strong_compactness_implications,
    topology_coincidence,
)
from powerspace.core import (
    FiniteSpace,
    antichain,
    chain,
    empty_space,
    enumerate_spaces,
    enumerate_upper_sets,
    neighborhoods,
    set_label,
    sierpinski,
)
from powerspace.powerspaces import open_lattice

from oracles import (
    flip_index_bit,
    index_bit_flips,
    labelled_spaces,
    least_triangle_intersections,
    literal_co_consonance,
    literal_consonance,
    literal_least_neighborhoods,
    literal_topology_coincidence,
    literal_wilker,
)

S = sierpinski()
D2 = antichain(2, names=("a", "b"))


def test_consonance_on_small_spaces():
    assert is_consonant(Powers(S)).holds
    assert is_consonant(Powers(empty_space())).holds
    for sp in enumerate_spaces(4):
        v = is_consonant(Powers(sp))
        assert v.holds and v.info["opens"] == len(sp.opens())


def test_co_consonance_on_small_spaces():
    assert is_co_consonant(Powers(S)).holds
    assert is_co_consonant(Powers(D2)).holds
    for sp in enumerate_spaces(4):
        assert is_co_consonant(Powers(sp)).holds


def _labelled_subjects(*constructions):
    """Every labelled space of at most 4 points, then the named
    constructions of every labelled space of at most 3 points."""
    subjects = list(labelled_spaces(4))
    for sp in labelled_spaces(3):
        pw = Powers(sp)
        subjects += [getattr(pw, c).space for c in constructions]
    assert len(subjects) == 243 + len(constructions) * 24
    return subjects


def test_consonance_matches_literal_quantifier():
    for x in _labelled_subjects("K", "O"):
        v = is_consonant(Powers(x))
        assert v.holds == (literal_consonance(x) is None)
        assert v.info["opens"] == len(x.opens())


def test_co_consonance_matches_per_pair_candidates():
    # the hoisted candidates are the least triangle intersections, and the
    # principal filters decide what every upper family of O(x) decides
    for x in _labelled_subjects("K", "O"):
        opens = x.opens()
        lattice = open_lattice(x)
        tri = [lattice.diamond(d) for d in x.down]
        assert checkers._co_consonance_candidates(x, opens, tri) == least_triangle_intersections(x)
        v = is_co_consonant(Powers(x))
        assert v.holds == (literal_co_consonance(x) is None)
        assert v.info["opens"] == len(opens)


@pytest.mark.parametrize("over", ["O", "K"])
def test_co_consonance_candidates_are_principal_filters_at_7581_opens(over):
    # on a finite space the least triangle intersection containing U is
    # U's principal filter in O(x); O(antichain(5)) and K(antichain(5))
    # each have 7,581 opens
    pw = Powers(antichain(5)).over(over)
    x, lattice = pw.base, pw.O
    opens = lattice.extents
    assert len(opens) == 7581
    tri = [lattice.diamond(d) for d in x.down]
    assert checkers._co_consonance_candidates(x, opens, tri) == list(lattice.space.up)


def test_co_consonance_fails_without_its_candidates(monkeypatch):
    # only the candidate, an empty intersection for the open {}, contains {}
    monkeypatch.setattr(checkers, "_co_consonance_candidates", lambda x, opens, tri: [0] * len(opens))
    for x in (S, antichain(3), chain(3)):
        v = is_co_consonant(Powers(x))
        assert not v.holds and v.witness["open"] == "{}"
        assert literal_co_consonance(x, candidates=[0] * len(x.opens())) is not None


def test_co_consonance_fails_on_a_coarser_candidate(monkeypatch):
    # every open as each candidate leaves the principal filter of every
    # open but {}, so it fails on exactly the labelled spaces with a point;
    # no scan of triangle pairs rescues it
    monkeypatch.setattr(checkers, "_co_consonance_candidates", lambda x, opens, tri: [(1 << len(opens)) - 1] * len(opens))
    spaces = labelled_spaces(4)
    failing = [x for x in spaces if not is_co_consonant(Powers(x)).holds]
    assert failing == [x for x in spaces if x.n > 0] and len(failing) == 242
    assert all(is_co_consonant(Powers(x)).witness["open"] == Powers(x).O.space.names[1] for x in failing)


def test_upper_space_co_consonant():
    for sp in enumerate_spaces(3):
        pw = Powers(sp)
        assert is_co_consonant(pw.over("K")).holds


def test_checkers_exhaustive_on_large_lattices():
    # O(X) has 16 points and 168 opens; the literal quantifier would range
    # over the 1.4 billion upper families of its open-set lattice
    pw = Powers(antichain(4)).over("O")
    for checker in (is_consonant, is_co_consonant):
        v = checker(pw)
        assert v.holds and v.info["opens"] == 168


def test_wilker():
    assert is_wilker(Powers(D2)).holds
    assert is_wilker(Powers(empty_space())).holds
    for sp in enumerate_spaces(4):
        assert is_wilker(Powers(sp)).holds


def test_wilker_matches_literal_triple_quantifier():
    for sp in labelled_spaces(4):
        v = is_wilker(Powers(sp))
        assert v.holds == (literal_wilker(sp) is None)
        m = len(sp.opens())
        assert (v.info["pairs"], v.info["decided"]) == (m * m, m * (m + 1) // 2)


def test_irreducibles_and_sobriety():
    assert {p.mask for p in irreducible_closed_sets(S)} == {0b01, 0b11}
    assert {p.mask for p in irreducible_closed_sets(D2)} == {0b01, 0b10}
    for sp in enumerate_spaces(4):
        assert is_sober(sp).holds


def test_sobriety_fails_on_a_wrong_closure_index():
    # the closed sets come from the opens, so the discrete rows show up
    # only as point closures: {top} is taken for top's closure, though
    # it is not closed, let alone irreducible
    x = sierpinski()
    object.__setattr__(x, "down", (0b01, 0b10))
    v = is_sober(x)
    assert not v.holds and v.witness == {"set": "{top}", "irreducible": False}


def test_irreducible_closed_sets_match_literal_quantifier():
    subjects = list(labelled_spaces(4))
    for sp in labelled_spaces(3):
        pw = Powers(sp)
        subjects += [pw.A.space, pw.O.space]
    for sp in subjects:
        opens = sp.opens()
        literal = [
            a
            for a in enumerate_upper_sets(sp.down)
            if a and all(not (a & u) or not (a & v) or a & (u & v) for u in opens for v in opens)
        ]
        assert [p.mask for p in irreducible_closed_sets(sp)] == literal


def test_consonance_equivalence_agreement():
    for sp in enumerate_spaces(4):
        v = consonance_equivalence(Powers(sp))
        assert v.holds
        assert v.info["definitional"] and v.info["sigma_bijective"] and v.info["tau_preimage_equality"]


def test_strong_compactness_implications():
    for sp in enumerate_spaces(4):
        v = strong_compactness_implications(Powers(sp))
        assert v.holds and v.info["consonant"] and v.info["co_consonant"]


def _with_discrete_open_lattice(x):
    """A tower over x whose O(X) keeps its extents and members index but
    has the discrete order in place of inclusion."""
    pw = Powers(x)
    names = pw.O.space.names
    object.__setattr__(pw.O, "space", FiniteSpace(names, tuple(1 << i for i in range(len(names)))))
    return pw


@pytest.mark.parametrize("x", [S, antichain(3), chain(3)], ids=["sierpinski", "antichain3", "chain3"])
def test_consonance_fails_on_a_discrete_open_lattice(x):
    # the compact filter of {} is every open, which the discrete order
    # does not put above {}
    assert is_consonant(Powers(x)).holds and consonance_equivalence(Powers(x)).holds
    v = is_consonant(_with_discrete_open_lattice(x))
    assert not v.holds and v.witness == {"family": "{{}}", "open": "{}"}
    v = consonance_equivalence(_with_discrete_open_lattice(x))
    assert not v.holds
    assert v.info["definitional"] is False and v.info["sigma_bijective"] and v.info["tau_preimage_equality"]


@pytest.mark.parametrize("point, extent, witness", [
    # {top} loses its bit at top, so box({}) wrongly holds it
    ("top", "{top}", {"K": "{}", "U1": "{}", "U2": "{}"}),
    # {} gains a bit at top, so box({}) wrongly drops it
    ("top", "{}", {"K": "{}", "U1": "{}", "U2": "{}"}),
    # {bot,top} loses its bit at bot, so box({top}) wrongly holds it
    ("bot", "{bot,top}", {"K": "{top}", "U1": "{}", "U2": "{top}"}),
])
def test_wilker_fails_on_a_wrong_box_index(point, extent, witness):
    pw = Powers(S)
    upper = pw.K
    p, j = S.names.index(point), upper.space.names.index(extent)
    sat_members = list(upper.sat_members)
    sat_members[p] ^= 1 << j
    object.__setattr__(upper, "sat_members", tuple(sat_members))
    v = is_wilker(pw)
    assert not v.holds and v.witness == witness


def _first_failing_pair(pw: Powers) -> dict | None:
    """The ordered sweep: the first pair (U1, U2) of opens in product
    order where box(U1) misses U1, box(U2) misses U2 or box(U1 | U2)
    leaves the points above U1 | U2 in K(X), read off pw.boxes."""
    upper, opens, boxes = pw.K, pw.O.extents, pw.boxes
    label = lambda m: set_label(pw.base.names, m)
    for (i, u1), (j, u2) in product(enumerate(opens), repeat=2):
        k = upper.point_of(u1 | u2)
        if not (boxes[i] >> upper.point_of(u1) & 1 and boxes[j] >> upper.point_of(u2) & 1
                and not boxes[opens.index(u1 | u2)] & ~upper.space.up[k]):
            return {"K": label(u1 | u2), "U1": label(u1), "U2": label(u2)}
    return None


def test_wilker_names_the_first_failing_pair_under_a_wrong_box():
    # one bit of one entry of pw.boxes flipped, every entry and bit, on
    # every labelled space of at most 3 points: is_wilker decides only
    # the pairs U1 <= U2 by index, and still names the pair the ordered
    # sweep names first
    failures = mixed = 0
    for sp in labelled_spaces(3):
        pw = Powers(sp)
        boxes = pw.boxes
        assert is_wilker(pw).holds and _first_failing_pair(pw) is None
        for c, b in product(range(len(boxes)), range(pw.K.space.n)):
            pw.__dict__["boxes"] = boxes[:c] + (boxes[c] ^ 1 << b,) + boxes[c + 1:]
            v, want = is_wilker(pw), _first_failing_pair(pw)
            assert v.holds == (want is None) and v.witness == want, (sp, c, b)
            failures += not v.holds
            mixed += not v.holds and v.witness["U1"] != v.witness["U2"]
    assert (failures, mixed) == (372, 261)


def test_wilker_fails_on_a_missing_point():
    pw = Powers(S)
    del pw.K._index[0b10]  # the compact {top}
    v = is_wilker(pw)
    assert not v.holds and v.witness == {"K": "{top}", "U1": "{}", "U2": "{top}"}


def test_strong_compactness_implications_fail_without_co_consonance(monkeypatch):
    monkeypatch.setattr(checkers, "_co_consonance_candidates", lambda x, opens, tri: [0] * len(opens))
    for x in (S, antichain(3), chain(3)):
        v = strong_compactness_implications(Powers(x))
        assert not v.holds and v.witness == {"direction": "consonant but not co-consonant"}


def test_topology_coincidences():
    for sp in enumerate_spaces(4):
        pw = Powers(sp)
        assert topology_coincidence(pw.A, "weak").holds
        assert topology_coincidence(pw.K, "scott").holds
    assert topology_coincidence(Powers(D2).KA, "weak").holds
    with pytest.raises(ValueError):
        topology_coincidence(Powers(S).A, "metric")


def test_weak_and_scott_neighborhoods_are_up():
    """The fact topology_coincidence takes for its reference side: the
    complements of the point closures (weak) and the up-sets (Scott) both
    give each point of a finite order the least neighborhood up(p)."""

    def check(sp):
        weak = [sp.full_mask & ~d for d in sp.down]
        assert neighborhoods(weak, sp.n) == list(sp.up) == neighborhoods(sp.up, sp.n), sp

    bases = list(enumerate_spaces(5))
    assert len(bases) == 88
    for sp in (*bases, *labelled_spaces(3)):
        check(sp)
    for sp in enumerate_spaces(3):
        pw = Powers(sp)
        for cs in (pw.A, pw.K, pw.O, pw.AK, pw.KA):
            check(cs.space)


def test_topology_coincidence_names_the_point_a_corrupted_index_changes():
    # a lost index bit and a stray one, each read as the literal subbasis
    # reads them: {bot,top} no longer holds top for A(X), so its least
    # neighborhood grows; {top} holds bot for K(X), so nothing smaller
    # than the whole space is a box around it
    pw = Powers(S)
    lost = flip_index_bit(pw.A, ("members", "sat_members"), 1, 2)
    v = topology_coincidence(lost, "weak")
    assert not v.holds and v == literal_topology_coincidence(lost, "weak")
    assert v.witness == {"point": "{bot,top}", "generated": "{{bot},{bot,top}}", "weak": "{{bot,top}}"}
    stray = flip_index_bit(pw.K, ("members", "sat_members"), 0, 1)
    v = topology_coincidence(stray, "scott")
    assert not v.holds and v == literal_topology_coincidence(stray, "scott")
    assert v.witness == {"point": "{top}", "generated": "{{},{top},{bot,top}}", "scott": "{{},{top}}"}


_WORDS = ("A", "K", "L", "O", "AK", "KA", "OO", "AO", "OK", "KO", "OA")


def test_least_neighborhoods_match_the_literal_subbasis():
    """The principal reading against the whole subbasis, as masks and as
    verdicts: A, K, L, O and the seven iterated words over every labelled
    space of at most 4 points."""
    built = 0
    for sp in labelled_spaces(4):
        pw = Powers(sp)
        for word in _WORDS:
            cs = getattr(pw, word)
            assert checkers._least_neighborhoods(cs) == literal_least_neighborhoods(cs) == list(cs.space.up), (sp, word)
            against = ("weak", "scott")[built % 2]
            assert topology_coincidence(cs, against) == literal_topology_coincidence(cs, against)
            built += 1
    assert built == 2673


def test_least_neighborhoods_match_the_literal_subbasis_under_index_corruption():
    """Every single-bit flip of the index (members, and sat_members apart
    for L) of A, K, L, O and K(A(X)) over every labelled space of at most
    3 points: the principal reading equals the literal one as masks, and
    the verdicts and witnesses agree."""
    flips = failing = 0
    for sp in labelled_spaces(3):
        pw = Powers(sp)
        for cs in (pw.A, pw.K, pw.L, pw.O, pw.KA):
            for bad in index_bit_flips(cs):
                assert checkers._least_neighborhoods(bad) == literal_least_neighborhoods(bad), (sp, cs)
                v = topology_coincidence(bad, "weak")
                assert v == literal_topology_coincidence(bad, "weak"), (sp, cs)
                flips += 1
                failing += not v.holds
    assert flips == 2782 and failing == 2137


def test_topology_coincidence_holds_at_five_points():
    """A(X) and K(X) of every 5-point space, and K(A(X)) of the 5-point
    antichain, the largest subject double_weak_coincidence would take on
    at 5 points."""
    spaces = [sp for sp in enumerate_spaces(5) if sp.n == 5]
    assert len(spaces) == 63
    for sp in spaces:
        pw = Powers(sp)
        assert topology_coincidence(pw.A, "weak").holds, sp
        assert topology_coincidence(pw.K, "scott").holds, sp
    ka = Powers(antichain(5)).KA
    assert ka.space.n == 7581
    assert topology_coincidence(ka, "weak").holds


def test_powerspace_sobriety():
    for sp in enumerate_spaces(4):
        pw = Powers(sp)
        assert is_sober(pw.A.space).holds
        assert is_sober(pw.O.space).holds
