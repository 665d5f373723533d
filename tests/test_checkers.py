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
    Verdict,
    antichain,
    bits,
    empty_space,
    enumerate_spaces,
    enumerate_upper_sets,
    set_label,
    sierpinski,
)
from powerspace.errors import NotSaturated
from powerspace.powerspaces import open_lattice

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


def _literal_co_consonance(x, limits=DEFAULT_LIMITS):
    """is_co_consonant with the canonical candidate recomputed for every
    (family, open) pair; also checks the hoisted candidates against it."""
    opens = x.opens(limits)
    closed = [x.full_mask ^ u for u in opens]
    lattice = open_lattice(x, limits)
    tri = [lattice.diamond(a) for a in closed]
    hoisted = checkers._co_consonance_candidates(x, opens, tri)
    fams, sampled = checkers._families(lattice.space, limits, checkers._seed_for(x, limits) ^ 0x5A5A)
    pairs = 0
    for fam in fams:
        for u_idx in bits(fam):
            pairs += 1
            inter = (1 << len(opens)) - 1
            for p in range(x.n):
                if opens[u_idx] >> p & 1 and x.down[p] & opens[u_idx] == 1 << p:
                    inter &= tri[closed.index(x.down[p])]
            assert hoisted[u_idx] == inter
            if inter >> u_idx & 1 and not inter & ~fam:
                continue
            if not any(
                (tri[i] & tri[j]) >> u_idx & 1 and not tri[i] & tri[j] & ~fam
                for i in range(len(closed))
                for j in range(i, len(closed))
            ):
                witness = {"family": set_label(lattice.space.names, fam), "open": lattice.space.names[u_idx]}
                return Verdict(False, witness=witness, info={"checker": "is_co_consonant", "sampled": sampled})
    return Verdict(True, info={"checker": "is_co_consonant", "families": len(fams), "pairs": pairs, "sampled": sampled})


def test_co_consonance_matches_per_pair_candidates():
    subjects = list(enumerate_spaces(4, up_to_iso=False))
    for sp in enumerate_spaces(3, up_to_iso=False):
        pw = Powers(sp)
        subjects += [pw.K.space, pw.O.space]
    assert len(subjects) == 243 + 2 * 24
    sampled = 0
    for x in subjects:
        v = is_co_consonant(x)
        assert v == _literal_co_consonance(x)
        sampled += v.info["sampled"]
    assert sampled  # both the exhaustive and the sampled families are covered


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
