"""Decision procedures for the topological properties the theorems turn on.

Consonance (Dolecki, Greco and Lechicki, 1995) and co-consonance ask, for
every Scott-open family F of opens (on a finite space, every upper family)
and every open U in F, for a witness inside F: a compact filter, or a
finite intersection of triangles, containing U.  A witness for F serves
every larger family, and U's principal filter is Scott-open and lies in
every such F, so the checkers decide each open once, on that filter.  Each
open has one candidate witness, read off the members index of O(X); the
check is that it contains U and lies inside U's principal filter, read off
the order of O(X), so a wrong order or a wrong index fails it.

Wilker's property (as used by de Brecht and Kawai) is decided on the
points and boxes of K(X): the split (U1, U2) of U1 | U2 also splits every
compact under the cover, so each pair of opens is decided by one test.
The test reads the same with U1 and U2 swapped, so each unordered pair
is decided once.  Every saturated set of a finite space is strongly
compact, its own finite witness, so the strong-compactness implication
is read off the consonance and co-consonance verdicts.

Whether the lower or upper construction preserves consonance cannot be
probed here: every finite space is consonant, so no finite experiment
can separate the candidates.  The checkers make no claim either way.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .config import DEFAULT_LIMITS, Limits
from .core import (
    FiniteSpace,
    PtSet,
    Verdict,
    bits,
    intersection_of,
    set_label,
    transpose,
)
from .powerspaces import KIND_LOWER, KIND_OPENS, KIND_UPPER, ConstructedSpace, Powers, _kept_on_powers
from .canonical import sigma_tau


@_kept_on_powers
def is_consonant(pw: Powers) -> Verdict:
    """Every Scott-open family of opens is a union of compact filters,
    decided at each open U on its principal filter.  The candidate is the
    filter of the compact up(min U), the opens containing the minimal
    points of U.  The verdict is kept on the tower."""
    lattice = pw.O
    candidates = [lattice.containing(pw.base.minimal_points(u)) for u in lattice.extents]
    bad = _first_failing_open(lattice, candidates)
    if bad:
        return Verdict(False, witness=bad, info={"checker": "is_consonant"})
    return Verdict(True, info={"checker": "is_consonant", "opens": len(candidates)})


@_kept_on_powers
def is_co_consonant(pw: Powers) -> Verdict:
    """Every Scott-open family of opens is a union of finite intersections
    of sets (triangle A), decided at each open U on its principal filter.
    The candidate intersects the triangles of the point closures of the
    minimal points of U.  The verdict is kept on the tower."""
    x, lattice = pw.base, pw.O
    opens = lattice.extents
    tri = [lattice.diamond(closure) for closure in x.down]
    bad = _first_failing_open(lattice, _co_consonance_candidates(x, opens, tri))
    if bad:
        return Verdict(False, witness=bad, info={"checker": "is_co_consonant"})
    return Verdict(True, info={"checker": "is_co_consonant", "opens": len(opens)})


def _first_failing_open(lattice: ConstructedSpace, candidates: list[int]) -> dict | None:
    """The witness at the first open U whose candidate, a mask over O(X),
    misses U or leaves U's principal filter in O(X); None when every
    candidate fits."""
    space = lattice.space
    for u_idx, (cand, fam) in enumerate(zip(candidates, space.up)):
        if not cand >> u_idx & 1 or cand & ~fam:
            return {"family": set_label(space.names, fam), "open": space.names[u_idx]}
    return None


def _co_consonance_candidates(x: FiniteSpace, opens, tri) -> list[int]:
    """Per open U, the intersection of tri[p] over the minimal points p of
    U, as a mask over the opens (tri[p] is the triangle of the closure of
    the point p)."""
    everything = (1 << len(opens)) - 1
    return [intersection_of(tri, x.minimal_points(u), everything) for u in opens]


def is_wilker(pw: Powers) -> Verdict:
    """Compacts under a two-open cover split into compacts under each
    open, decided on K(X) for every pair (U1, U2): K1 = U1 and K2 = U2 are
    points in box(U1) and box(U2), and every compact under the cover, each
    point of box(U1 | U2), lies inside K1 | K2, above the point
    K = U1 | U2 in K(X)'s order.

    splits(i, j) is splits(j, i): K and its cover are the same, and the
    two box tests swap with the points they look up.  So each unordered
    pair is decided once, at i <= j in product order; a pair (j, i)
    with j > i fails exactly when (i, j), which comes earlier, does, so
    the first failing pair is the one an ordered sweep names.  info
    counts the ordered pairs covered and the pairs decided."""
    upper, lattice, boxes = pw.K, pw.O, pw.boxes
    opens = lattice.extents

    def splits(i: int, j: int) -> bool:
        u1, u2 = opens[i], opens[j]
        try:
            k, k1, k2 = map(upper.point_of, (u1 | u2, u1, u2))
            cover = boxes[lattice.point_of(u1 | u2)]
        except ValueError:
            return False
        return boxes[i] >> k1 & 1 and boxes[j] >> k2 & 1 and not cover & ~upper.space.up[k]

    m = len(opens)
    for i, j in combinations_with_replacement(range(m), 2):
        if not splits(i, j):
            names = pw.base.names
            return Verdict(
                False,
                witness={
                    "K": set_label(names, opens[i] | opens[j]),
                    "U1": set_label(names, opens[i]),
                    "U2": set_label(names, opens[j]),
                },
                info={"checker": "is_wilker"},
            )
    return Verdict(True, info={"checker": "is_wilker", "pairs": m * m, "decided": m * (m + 1) // 2})


def irreducible_closed_sets(x: FiniteSpace, limits: Limits = DEFAULT_LIMITS) -> list[PtSet]:
    """Non-empty closed sets that meet the intersection of any two opens
    they meet.  An open meeting a at p contains the open up(p), so a is
    kept when a & up(p) & up(q) is non-empty for all p, q in a (p = q
    holds by p itself).  The closed sets are the complements of the
    space's one enumeration of opens, taken in reverse so that they
    ascend; a space with more of them than the cap is refused before
    they are enumerated."""
    full, up = x.full_mask, x.up
    return [
        PtSet(x, a)
        for a in (full ^ u for u in reversed(x.opens(limits)))
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


def consonance_equivalence(pw: Powers) -> Verdict:
    """Three renderings of consonance, evaluated independently:
    the filter definition, bijectivity of sigma, and the subbasic preimage
    equality for tau.  Holds when all three agree."""
    definitional = is_consonant(pw).holds
    pair = sigma_tau(pw)
    bijective = len(set(pair.forward.table)) == pw.KA.space.n == pw.AK.space.n
    tau_equality = all(
        pair.backward.preimage_mask(pw.AK.diamond(box)) == pw.KA.box(dia) for dia, box in zip(pw.diamonds, pw.boxes)
    )
    info = {
        "checker": "consonance_equivalence",
        "definitional": definitional,
        "sigma_bijective": bijective,
        "tau_preimage_equality": tau_equality,
    }
    if definitional == bijective == tau_equality:
        return Verdict(True, info=info)
    return Verdict(False, witness={"disagreement": info}, info=info)


def strong_compactness_implications(pw: Powers) -> Verdict:
    """Consonance plus every saturated set strongly compact forces
    co-consonance.  Every saturated set of a finite space is strongly
    compact (its own finite witness), so this is consonant implies
    co-consonant, read off the two verdicts kept on the tower."""
    cocons = is_co_consonant(pw).holds
    cons = is_consonant(pw).holds
    if cons and not cocons:
        return Verdict(False, witness={"direction": "consonant but not co-consonant"})
    return Verdict(
        True,
        info={"checker": "strong_compactness_implications", "co_consonant": cocons, "consonant": cons},
    )


def topology_coincidence(space: ConstructedSpace, against: str) -> Verdict:
    """Compare the topology generated by a construction's subbasis with the
    weak or the Scott topology of its specialization order.  On a finite
    order both give p the least neighborhood up(p): the Scott opens are
    the up-sets, and up(p) is the intersection of the complements of the
    point closures down(q), q not in up(p), which generate the weak
    topology.  A family closed under finite unions and intersections is
    the unions of its least neighborhoods, so comparing those with up
    decides.

    The generated side takes one principal subbasic set per point and
    part (Gierz et al., Continuous Lattices and Domains, ch. II-1).
    With col the transpose of members, or of sat_members for the boxes
    of L, point i lies in diamond(U) when U meets col[i], in box(U) when
    U holds col[i], and in containing(U) when U lies inside col[i].
    diamond and box grow with U and containing shrinks, for any members
    table.  So each subbasic set holding i holds one that also holds i:
    diamond(up(p)) for some p in col[i], box(saturation of col[i]) or
    containing(interior of col[i]).  Their intersection, over p for A,
    the one box for K, both parts for L and the one containing set for
    O, is that of the whole subbasis, U over every open, even under a
    wrong index: a corrupted index fails as the literal reading would.
    """
    if against not in ("weak", "scott"):
        raise ValueError(f"unknown reference topology {against!r}")
    names, up = space.space.names, space.space.up
    generated = _least_neighborhoods(space)
    info = {"checker": "topology_coincidence", "against": against}
    if generated == list(up):
        return Verdict(True, info=info)
    p = next(p for p, (m, row) in enumerate(zip(generated, up)) if m != row)
    witness = {"point": names[p], "generated": set_label(names, generated[p]), against: set_label(names, up[p])}
    return Verdict(False, witness=witness, info=info)


def _least_neighborhoods(cs: ConstructedSpace) -> list[int]:
    """Per point of cs, its least neighborhood by the principal reading."""
    base, n = cs.base, cs.space.n
    if cs.kind == KIND_OPENS:
        return [cs.containing(base.interior_mask(c)) for c in transpose(cs.members, n)]
    full = (1 << n) - 1
    out = [full] * n
    if cs.kind != KIND_UPPER:
        diamonds = list(map(cs.diamond, base.up))
        out = [intersection_of(diamonds, c, full) for c in transpose(cs.members, n)]
    if cs.kind != KIND_LOWER:
        out = [m & cs.box(base.saturation_mask(c)) for m, c in zip(out, transpose(cs.sat_members, n))]
    return out
