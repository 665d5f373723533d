"""Decision procedures for the topological properties the theorems turn on.

Quantifiers over "every Scott-open family of opens" are exhaustive while
the open-set lattice stays small (finite Scott opens are exactly the
upper families); past the configured limit the checkers fall back to
seeded random sampling and say so in the verdict.  Witness searches try
the canonical finite-space witness first and only then scan, which keeps
the procedures decision procedures rather than theorem restatements.

Whether the lower or upper construction preserves consonance cannot be
probed here: every finite space is consonant, so no finite experiment
can separate the candidates.  The checkers make no claim either way.
"""

from __future__ import annotations

import random
from itertools import combinations

from .config import DEFAULT_LIMITS, Limits
from .core import (
    FiniteSpace,
    PtSet,
    Verdict,
    bits,
    enumerate_upper_sets,
    intersection_of,
    mask_of,
    neighborhoods,
    set_label,
)
from .errors import NotSaturated
from .powerspaces import ConstructedSpace, Powers, _kept_on_powers, _powers
from .canonical import sigma_tau


def _families(lattice_space: FiniteSpace, limits: Limits, seed: int):
    """Scott-open families as masks over the lattice points, plus a flag
    telling whether the enumeration was exhaustive."""
    if lattice_space.n <= limits.family_enumeration_limit:
        return enumerate_upper_sets(lattice_space.up, limits.max_construction_points), False
    rng = random.Random(seed)
    fams = {0, lattice_space.full_mask}
    for _ in range(limits.sample_count):
        gen = 0
        for i in range(lattice_space.n):
            if rng.random() < 0.25:
                gen |= 1 << i
        fams.add(lattice_space.saturation_mask(gen))
    return sorted(fams), True


def _seed_for(space: FiniteSpace, limits: Limits) -> int:
    return limits.seed ^ int(space.fingerprint, 16)


@_kept_on_powers
def is_consonant(pw: Powers) -> Verdict:
    """Every Scott-open family of opens is a union of compact filters.

    The witness search tries K = U itself first; an open set of a finite
    space is saturated and compact, and its filter sits inside any upward
    closed family containing U, so the fallback scan is a safeguard.
    Takes a base space or a Powers, on which the verdict is kept.
    """
    x, limits = pw.base, pw.limits
    opens = x.opens(limits)
    lattice_space = pw.O.space
    filters = lattice_space.up
    fams, sampled = _families(lattice_space, limits, _seed_for(x, limits))
    pairs = 0
    for fam in fams:
        for u_idx in bits(fam):
            pairs += 1
            if not (filters[u_idx] & ~fam):
                continue  # K = U works
            if not any(
                not (filters[k_idx] & ~fam) and not (opens[k_idx] & ~opens[u_idx])
                for k_idx in range(len(opens))
            ):
                return Verdict(
                    False,
                    witness={"family": set_label(lattice_space.names, fam), "open": lattice_space.names[u_idx]},
                    info={"checker": "is_consonant", "sampled": sampled},
                )
    return Verdict(True, info={"checker": "is_consonant", "families": len(fams), "pairs": pairs, "sampled": sampled})


@_kept_on_powers
def is_co_consonant(pw: Powers) -> Verdict:
    """Every Scott-open family of opens is a union of finite intersections
    of sets (triangle A).  The canonical candidate takes the point closures
    of the minimal points of U; their triangle-intersection is the filter
    above U.  It depends on U alone, so it is computed once per open.  A
    bounded scan over closed-set pairs backs it up.  Takes a base space or
    a Powers, on which the verdict is kept."""
    x, limits = pw.base, pw.limits
    opens = x.opens(limits)
    closed = [x.full_mask ^ u for u in opens]
    lattice = pw.O
    lattice_space = lattice.space
    tri = [lattice.diamond(a) for a in closed]
    candidate = _co_consonance_candidates(x, opens, tri)
    fams, sampled = _families(lattice_space, limits, _seed_for(x, limits) ^ 0x5A5A)
    pairs = 0
    for fam in fams:
        for u_idx in bits(fam):
            pairs += 1
            inter = candidate[u_idx]
            if (inter >> u_idx) & 1 and not (inter & ~fam):
                continue
            found = False
            for i in range(len(closed)):
                for j in range(i, len(closed)):
                    inter = tri[i] & tri[j]
                    if (inter >> u_idx) & 1 and not (inter & ~fam):
                        found = True
                        break
                if found:
                    break
            if not found:
                return Verdict(
                    False,
                    witness={"family": set_label(lattice_space.names, fam), "open": lattice_space.names[u_idx]},
                    info={"checker": "is_co_consonant", "sampled": sampled},
                )
    return Verdict(True, info={"checker": "is_co_consonant", "families": len(fams), "pairs": pairs, "sampled": sampled})


def _co_consonance_candidates(x: FiniteSpace, opens, tri) -> list[int]:
    """Per open U, the intersection of tri[a] over the closures a of the
    minimal points of U, as a mask over the opens (tri[k] belongs to the
    complement of opens[k])."""
    closed_index = {x.full_mask ^ u: k for k, u in enumerate(opens)}
    everything = (1 << len(opens)) - 1
    return [
        intersection_of(tri, mask_of(closed_index[x.down[p]] for p in bits(x.minimal_points(u))), everything)
        for u in opens
    ]


def is_strongly_compact(x: FiniteSpace, k: PtSet, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """K is strongly compact when every open around it contains the
    saturation of a finite set that still contains K.  Finite spaces allow
    F = K itself; the inclusions are still evaluated literally."""
    if k.space != x:
        raise ValueError("point set belongs to a different space")
    if x.saturation_mask(k.mask) != k.mask:
        raise NotSaturated(f"{k.label()} is not saturated")
    checked = 0
    for u in x.opens(limits):
        if k.mask & ~u:
            continue
        f = k.mask
        up_f = x.saturation_mask(f)
        checked += 1
        if k.mask & ~up_f or up_f & ~u:
            return Verdict(
                False,
                witness={"open": set_label(x.names, u)},
                info={"checker": "is_strongly_compact"},
            )
    return Verdict(True, info={"checker": "is_strongly_compact", "opens": checked})


def is_wilker(x: FiniteSpace, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Compacts under a two-open cover split into compacts under each
    open.  Tries (K & U1, K & U2) first, then scans saturated pairs."""
    opens = x.opens(limits)
    saturated = opens  # in a finite space the saturated sets are the opens
    triples = 0
    for u1 in opens:
        for u2 in opens:
            cover = u1 | u2
            for k in saturated:
                if k & ~cover:
                    continue
                triples += 1
                k1, k2 = k & u1, k & u2
                if not (k1 & ~u1) and not (k2 & ~u2) and not (k & ~(k1 | k2)):
                    continue
                if not wilker_scan(saturated, k, u1, u2):
                    return Verdict(
                        False,
                        witness={
                            "K": set_label(x.names, k),
                            "U1": set_label(x.names, u1),
                            "U2": set_label(x.names, u2),
                        },
                        info={"checker": "is_wilker"},
                    )
    return Verdict(True, info={"checker": "is_wilker", "triples": triples})


def wilker_scan(saturated, k, u1, u2) -> bool:
    """Brute-force existence of saturated k1 inside u1 and k2 inside u2
    covering k."""
    for k1 in saturated:
        if k1 & ~u1:
            continue
        for k2 in saturated:
            if not (k2 & ~u2) and not (k & ~(k1 | k2)):
                return True
    return False


def irreducible_closed_sets(x: FiniteSpace, limits: Limits = DEFAULT_LIMITS) -> list[PtSet]:
    """Non-empty closed sets that meet the intersection of any two opens
    they meet.  An open meeting a at p contains the open up(p), so a is
    kept when a & up(p) & up(q) is non-empty for all p, q in a (p = q
    holds by p itself)."""
    up = x.up
    return [
        PtSet(x, a)
        for a in enumerate_upper_sets(x.down, limits.max_construction_points)
        if a and all(a & up[p] & up[q] for p, q in combinations(bits(a), 2))
    ]


def is_sober(x: FiniteSpace, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Every irreducible closed set is the closure of a unique point."""
    irr = {p.mask for p in irreducible_closed_sets(x, limits)}
    closures = {x.down[p] for p in range(x.n)}
    if irr == closures:
        return Verdict(True, info={"checker": "is_sober", "irreducibles": len(irr)})
    diff = sorted(irr.symmetric_difference(closures))
    return Verdict(
        False,
        witness={"set": set_label(x.names, diff[0]), "irreducible": diff[0] in irr},
        info={"checker": "is_sober"},
    )


def consonance_equivalence(x: FiniteSpace | Powers, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Three renderings of consonance, evaluated independently:
    the filter definition, bijectivity of sigma, and the subbasic preimage
    equality for tau.  Holds when all three agree."""
    pw = _powers(x, limits)
    definitional = is_consonant(pw).holds
    pair = sigma_tau(pw)
    bijective = len(set(pair.forward.table)) == pw.KA.space.n == pw.AK.space.n
    tau_equality = True
    for u in pw.base.opens(pw.limits):
        box_dia = pw.KA.box(pw.A.diamond(u))
        dia_box = pw.AK.diamond(pw.K.box(u))
        if pair.backward.preimage_mask(dia_box) != box_dia:
            tau_equality = False
            break
    info = {
        "checker": "consonance_equivalence",
        "definitional": definitional,
        "sigma_bijective": bijective,
        "tau_preimage_equality": tau_equality,
    }
    if definitional == bijective == tau_equality:
        return Verdict(True, info=info)
    return Verdict(False, witness={"disagreement": info}, info=info)


def strong_compactness_implications(x: FiniteSpace | Powers, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Co-consonance forces every saturated set strongly compact, and
    consonance plus all-strongly-compact forces co-consonance."""
    pw = _powers(x, limits)
    x = pw.base
    cocons = is_co_consonant(pw).holds
    cons = is_consonant(pw).holds
    all_strong = all(
        is_strongly_compact(x, PtSet(x, k), pw.limits).holds for k in x.opens(pw.limits)
    )
    if cocons and not all_strong:
        return Verdict(False, witness={"direction": "co-consonant but some saturated set is not strongly compact"})
    if cons and all_strong and not cocons:
        return Verdict(False, witness={"direction": "consonant with all sets strongly compact but not co-consonant"})
    return Verdict(
        True,
        info={"checker": "strong_compactness_implications", "co_consonant": cocons,
              "consonant": cons, "all_strongly_compact": all_strong},
    )


def topology_coincidence(space: ConstructedSpace, against: str, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Compare the topology generated by a construction's subbasis with a
    reference recomputed from the specialization order alone, generated
    by the complements of the point closures (weak) or by the up-sets
    (Scott).  A family closed under finite unions and intersections is
    the unions of its least neighborhoods, so comparing those decides."""
    cs_space = space.space
    if against == "weak":
        seeds = [cs_space.full_mask & ~d for d in cs_space.down]
    elif against == "scott":
        seeds = cs_space.up
    else:
        raise ValueError(f"unknown reference topology {against!r}")
    generated = neighborhoods(space.subbasis(limits), cs_space.n)
    reference = neighborhoods(seeds, cs_space.n)
    info = {"checker": "topology_coincidence", "against": against}
    if generated == reference:
        return Verdict(True, info=info)
    p = next(p for p in range(cs_space.n) if generated[p] != reference[p])
    return Verdict(
        False,
        witness={
            "point": cs_space.names[p],
            "generated": set_label(cs_space.names, generated[p]),
            against: set_label(cs_space.names, reference[p]),
        },
        info=info,
    )
