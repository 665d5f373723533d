import pytest

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
from powerspace.core import PtSet, antichain, empty_space, enumerate_spaces, enumerate_upper_sets, sierpinski
from powerspace.errors import NotSaturated

S = sierpinski()
D2 = antichain(2, names=("a", "b"))


def test_consonance_on_small_spaces():
    assert is_consonant(S).holds
    assert is_consonant(empty_space()).holds
    for sp in enumerate_spaces(4):
        v = is_consonant(sp)
        assert v.holds and not v.info["sampled"]


def test_co_consonance_on_small_spaces():
    assert is_co_consonant(S).holds
    assert is_co_consonant(D2).holds
    for sp in enumerate_spaces(4):
        assert is_co_consonant(sp).holds


def test_upper_space_co_consonant():
    for sp in enumerate_spaces(3):
        pw = Powers(sp)
        assert is_co_consonant(pw.K.space).holds


def test_sampling_kicks_in_on_large_lattices():
    pw = Powers(antichain(4))
    v = is_consonant(pw.O.space)
    assert v.holds and v.info["sampled"]


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


def test_irreducibles_and_sobriety():
    assert {p.mask for p in irreducible_closed_sets(S)} == {0b01, 0b11}
    assert {p.mask for p in irreducible_closed_sets(D2)} == {0b01, 0b10}
    for sp in enumerate_spaces(4):
        assert is_sober(sp).holds


def test_irreducible_closed_sets_match_literal_quantifier():
    for sp in enumerate_spaces(4, up_to_iso=False):
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


def test_powerspace_sobriety():
    for sp in enumerate_spaces(4):
        pw = Powers(sp)
        assert is_sober(pw.A.space).holds
        assert is_sober(pw.O.space).holds
