import pytest

from powerspace import checkers
from powerspace.canonical import Powers
from powerspace.checkers import (
    consonance_equivalence,
    irreducible_closed_sets,
    is_co_consonant,
    is_consonant,
    is_sober,
    is_strongly_compact,
    is_wilker,
    strong_compactness_implications,
    topology_coincidence,
)
from powerspace.config import DEFAULT_LIMITS
from powerspace.core import (
    PtSet,
    antichain,
    chain,
    empty_space,
    enumerate_spaces,
    enumerate_upper_sets,
    sierpinski,
)
from powerspace.errors import NotSaturated
from powerspace.powerspaces import ConstructedSpace, open_lattice

from oracles import least_triangle_intersections, literal_co_consonance, literal_consonance, literal_wilker

S = sierpinski()
D2 = antichain(2, names=("a", "b"))


def test_consonance_on_small_spaces():
    assert is_consonant(S).holds
    assert is_consonant(empty_space()).holds
    for sp in enumerate_spaces(4):
        v = is_consonant(sp)
        assert v.holds and v.info["opens"] == len(sp.opens())


def test_co_consonance_on_small_spaces():
    assert is_co_consonant(S).holds
    assert is_co_consonant(D2).holds
    for sp in enumerate_spaces(4):
        assert is_co_consonant(sp).holds


def _labelled_subjects(*constructions):
    """Every labelled space of at most 4 points, then the named
    constructions of every labelled space of at most 3 points."""
    subjects = list(enumerate_spaces(4, up_to_iso=False))
    for sp in enumerate_spaces(3, up_to_iso=False):
        pw = Powers(sp)
        subjects += [getattr(pw, c).space for c in constructions]
    assert len(subjects) == 243 + len(constructions) * 24
    return subjects


def test_consonance_matches_literal_quantifier():
    for x in _labelled_subjects("K", "O"):
        v = is_consonant(x)
        assert v.holds == (literal_consonance(x) is None)
        assert v.info["opens"] == len(x.opens())


def test_co_consonance_matches_per_pair_candidates():
    # the hoisted candidates are the least triangle intersections, and the
    # principal filters decide what every upper family of O(x) decides
    for x in _labelled_subjects("K", "O"):
        opens = x.opens()
        lattice = open_lattice(x)
        tri = [lattice.diamond(x.full_mask ^ u) for u in opens]
        assert checkers._co_consonance_candidates(x, opens, tri) == least_triangle_intersections(x)
        v = is_co_consonant(x)
        assert v.holds == (literal_co_consonance(x) is None)
        assert v.info["opens"] == len(opens)


def test_co_consonance_fails_without_its_candidates(monkeypatch):
    # only the candidate, an empty intersection for the open {}, contains {}
    monkeypatch.setattr(checkers, "_co_consonance_candidates", lambda x, opens, tri: [0] * len(opens))
    for x in (S, antichain(3), chain(3)):
        v = is_co_consonant(x)
        assert not v.holds and v.witness["open"] == "{}"
        assert literal_co_consonance(x, candidates=[0] * len(x.opens())) is not None


def test_co_consonance_matches_literal_quantifier_on_a_coarser_candidate(monkeypatch):
    # every open as each candidate fails on 46 of the labelled spaces; the
    # principal filters still decide what every upper family decides
    def everything(x):
        return [(1 << len(x.opens())) - 1] * len(x.opens())

    monkeypatch.setattr(checkers, "_co_consonance_candidates", lambda x, opens, tri: everything(x))
    failing = 0
    for x in enumerate_spaces(4, up_to_iso=False):
        v = is_co_consonant(x)
        assert v.holds == (literal_co_consonance(x, candidates=everything(x)) is None)
        failing += not v.holds
    assert failing == 46


def test_upper_space_co_consonant():
    for sp in enumerate_spaces(3):
        pw = Powers(sp)
        assert is_co_consonant(pw.K.space).holds


def test_checkers_exhaustive_on_large_lattices():
    # O(X) has 16 points and 168 opens; the literal quantifier would range
    # over the 1.4 billion upper families of its open-set lattice
    x = Powers(antichain(4)).O.space
    for checker in (is_consonant, is_co_consonant):
        v = checker(x)
        assert v.holds and v.info["opens"] == 168


def test_strongly_compact():
    assert is_strongly_compact(S, PtSet(S, 0b10)).holds
    assert is_strongly_compact(D2, PtSet(D2, 0b11)).holds
    with pytest.raises(NotSaturated):
        is_strongly_compact(S, PtSet(S, 0b01))
    for sp in enumerate_spaces(4):
        for k in sp.opens():
            assert is_strongly_compact(sp, PtSet(sp, k)).holds


def test_wilker():
    assert is_wilker(D2).holds
    assert is_wilker(empty_space()).holds
    for sp in enumerate_spaces(4):
        assert is_wilker(sp).holds


def test_wilker_matches_literal_triple_quantifier():
    for sp in enumerate_spaces(4, up_to_iso=False):
        v = is_wilker(sp)
        assert v.holds == (literal_wilker(sp) is None)
        assert v.info["pairs"] == len(sp.opens()) ** 2


def test_irreducibles_and_sobriety():
    assert {p.mask for p in irreducible_closed_sets(S)} == {0b01, 0b11}
    assert {p.mask for p in irreducible_closed_sets(D2)} == {0b01, 0b10}
    for sp in enumerate_spaces(4):
        assert is_sober(sp).holds


def test_irreducible_closed_sets_match_literal_quantifier():
    subjects = list(enumerate_spaces(4, up_to_iso=False))
    for sp in enumerate_spaces(3, up_to_iso=False):
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
        v = consonance_equivalence(sp)
        assert v.holds
        assert v.info["definitional"] and v.info["sigma_bijective"] and v.info["tau_preimage_equality"]


def test_strong_compactness_implications():
    for sp in enumerate_spaces(4):
        assert strong_compactness_implications(sp).holds


def test_topology_coincidences():
    for sp in enumerate_spaces(4):
        pw = Powers(sp)
        assert topology_coincidence(pw.A, "weak").holds
        assert topology_coincidence(pw.K, "scott").holds
    assert topology_coincidence(Powers(D2).KA, "weak").holds
    with pytest.raises(ValueError):
        topology_coincidence(Powers(S).A, "metric")


def test_topology_coincidence_names_the_point_a_lost_generator_changes(monkeypatch):
    # dropping the generator for the open {top} leaves {bot,top} with a
    # larger least neighborhood than the order gives it
    subbasis = ConstructedSpace.subbasis
    monkeypatch.setattr(ConstructedSpace, "subbasis", lambda cs, limits=DEFAULT_LIMITS: subbasis(cs, limits)[::2])
    pw = Powers(S)
    v = topology_coincidence(pw.A, "weak")
    assert not v.holds
    assert v.witness == {"point": "{bot,top}", "generated": "{{bot},{bot,top}}", "weak": "{{bot,top}}"}
    v = topology_coincidence(pw.K, "scott")
    assert not v.holds
    assert v.witness == {"point": "{top}", "generated": "{{},{top},{bot,top}}", "scott": "{{},{top}}"}


def test_powerspace_sobriety():
    for sp in enumerate_spaces(4):
        pw = Powers(sp)
        assert is_sober(pw.A.space).holds
        assert is_sober(pw.O.space).holds
