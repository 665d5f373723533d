"""Pi-0-2 presentations and the range theorems for the liftings.

A presentation is a finite list of open pairs (U_i, V_i) carving out the
points that land in V_i whenever they land in U_i.  On a finite space
every subset has such a presentation: for each excluded point x take the
pair (up(x), up(x) minus x).
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_LIMITS, Limits
from .core import (
    FiniteSpace,
    PtSet,
    SpaceMap,
    Verdict,
    bits,
    check_continuous,
    mask_of,
    set_label,
    space_product,
)
from .errors import NotEmbedding, PresentationMismatch
from .powerspaces import (
    convex_powerspace,
    functor_map,
    lower_powerspace,
    monad_unit,
    upper_powerspace,
)


@dataclass(frozen=True)
class Pi02Presentation:
    """Open pairs (U_i, V_i) over an ambient space, stored as masks."""

    ambient: FiniteSpace
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.pairs:
            if not self.ambient.is_open(u) or not self.ambient.is_open(v):
                raise ValueError("presentation pairs must be open")

    def to_json(self, limits: Limits = DEFAULT_LIMITS) -> dict:
        opens = self.ambient.opens(limits)
        return {
            "ambient": self.ambient.fingerprint,
            "pairs": [[opens.index(u), opens.index(v)] for u, v in self.pairs],
        }

    @staticmethod
    def from_json(ambient: FiniteSpace, data: dict, limits: Limits = DEFAULT_LIMITS) -> "Pi02Presentation":
        opens = ambient.opens(limits)
        return Pi02Presentation(ambient, tuple((opens[i], opens[j]) for i, j in data["pairs"]))


def pi02_eval(p: Pi02Presentation) -> PtSet:
    """Points satisfying every implication of the presentation."""
    m = p.ambient.full_mask
    for u, v in p.pairs:
        m &= (p.ambient.full_mask ^ u) | v
    return PtSet(p.ambient, m)


def presentation_for_subset(ambient: FiniteSpace, mask: int) -> Pi02Presentation:
    """A presentation whose evaluation is exactly the given subset."""
    pairs = []
    for x in range(ambient.n):
        if not (mask >> x) & 1:
            up_x = ambient.up[x]
            pairs.append((up_x, up_x & ~(1 << x)))
    return Pi02Presentation(ambient, tuple(pairs))


def validate_embedding(e: SpaceMap, limits: Limits = DEFAULT_LIMITS) -> None:
    """Injectivity, continuity and openness onto the image, each literal."""
    if not e.is_injective():
        raise NotEmbedding("not injective")
    if not check_continuous(e).holds:
        raise NotEmbedding("not continuous")
    image = e.image_mask()
    cod_opens = e.codomain.opens(limits)
    for w in e.domain.opens(limits):
        fw = mask_of(e.table[i] for i in bits(w))
        if not any(fw == (w2 & image) for w2 in cod_opens):
            raise NotEmbedding(f"image of {set_label(e.domain.names, w)} is not relatively open")


def lower_embedding_range(e: SpaceMap, p: Pi02Presentation, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """The lifting of an embedding onto a presented subspace has, inside
    the lower construction over the ambient space, exactly the points
    satisfying the relativized diamond implications."""
    validate_embedding(e, limits)
    if pi02_eval(p).mask != e.image_mask():
        raise PresentationMismatch("presentation does not carve out the image of the embedding")
    y = e.codomain
    dom_ps = lower_powerspace(e.domain, limits)
    cod_ps = lower_powerspace(y, limits)
    lifted = functor_map("A", e, dom_ps=dom_ps, cod_ps=cod_ps, limits=limits)
    rng = mask_of(lifted.table)
    basis = y.opens(limits)
    sel = 0
    for i, a in enumerate(cod_ps.extents):
        if all((not (a & (b & u)) or a & (b & v)) for b in basis for u, v in p.pairs):
            sel |= 1 << i
    info = {"checker": "lower_embedding_range", "ambient_points": y.n, "range": len(lifted.table)}
    if sel != rng:
        diff = sel ^ rng
        which = next(bits(diff))
        return Verdict(False, witness={"closed_set": cod_ps.space.names[which],
                                       "in_condition_set": bool((sel >> which) & 1)}, info=info)
    if not _order_embedding(lifted):
        return Verdict(False, witness={"failure": "lifting is not an embedding"}, info=info)
    return Verdict(True, info=info)


def upper_embedding_range(e: SpaceMap, p: Pi02Presentation, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Dual of lower_embedding_range with boxes over unions; the basis is
    the full open family, which is closed under finite unions."""
    validate_embedding(e, limits)
    if pi02_eval(p).mask != e.image_mask():
        raise PresentationMismatch("presentation does not carve out the image of the embedding")
    y = e.codomain
    dom_ps = upper_powerspace(e.domain, limits)
    cod_ps = upper_powerspace(y, limits)
    lifted = functor_map("K", e, dom_ps=dom_ps, cod_ps=cod_ps, limits=limits)
    rng = mask_of(lifted.table)
    basis = y.opens(limits)
    sel = 0
    for i, k in enumerate(cod_ps.extents):
        if all((k & ~(b | u) or not (k & ~(b | v))) for b in basis for u, v in p.pairs):
            sel |= 1 << i
    info = {"checker": "upper_embedding_range", "ambient_points": y.n, "range": len(lifted.table)}
    if sel != rng:
        diff = sel ^ rng
        which = next(bits(diff))
        return Verdict(False, witness={"saturated_set": cod_ps.space.names[which],
                                       "in_condition_set": bool((sel >> which) & 1)}, info=info)
    if not _order_embedding(lifted):
        return Verdict(False, witness={"failure": "lifting is not an embedding"}, info=info)
    return Verdict(True, info=info)


def _order_embedding(f: SpaceMap) -> bool:
    # for finite spaces "topological embedding" and "order embedding" agree
    if not f.is_injective():
        return False
    for i in range(f.domain.n):
        for j in range(f.domain.n):
            if f.domain.leq(i, j) != f.codomain.leq(f.table[i], f.table[j]):
                return False
    return True


def lens_pi02(x: FiniteSpace, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """The lens pairs inside the product of the lower and upper
    constructions are exactly the pairs passing the two mixed-modality
    implications, and the subspace they span is the convex construction."""
    a_ps = lower_powerspace(x, limits)
    k_ps = upper_powerspace(x, limits)
    lens = convex_powerspace(x, limits)
    prod, pairs = space_product(a_ps.space, k_ps.space)
    basis = x.opens(limits)
    by_condition = []
    for ai, ki in pairs:
        a, k = a_ps.extents[ai], k_ps.extents[ki]
        ok = True
        for u in basis:
            for v in basis:
                if a & u and not (k & ~v) and not (a & (u & v)):
                    ok = False
                    break
                if not (k & ~(u | v)) and not (a & u) and k & ~v:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            by_condition.append((a, k))
    by_definition = [
        (a, k)
        for a, k in ((a_ps.extents[ai], k_ps.extents[ki]) for ai, ki in pairs)
        if x.closure_mask(a & k) == a and x.saturation_mask(a & k) == k
    ]
    info = {"checker": "lens_pi02", "condition_pairs": len(by_condition), "lens_pairs": len(by_definition)}
    if sorted(by_condition) != sorted(by_definition):
        sym = set(by_condition).symmetric_difference(by_definition)
        a, k = sorted(sym)[0]
        return Verdict(False, witness={"pair": (set_label(x.names, a), set_label(x.names, k))}, info=info)
    if sorted(by_condition) != list(lens.extents):
        return Verdict(False, witness={"failure": "condition set differs from the convex construction"}, info=info)
    # subspace topology of the product on the lens pairs vs the construction
    pair_pos = {pq: i for i, pq in enumerate(pairs)}
    chosen = [pair_pos[(a_ps.point_of(a), k_ps.point_of(k))] for a, k in lens.extents]
    for li, pi in enumerate(chosen):
        for lj, pj in enumerate(chosen):
            if lens.space.leq(li, lj) != prod.leq(pi, pj):
                return Verdict(
                    False,
                    witness={"failure": "subspace order differs", "pair": lens.space.names[li]},
                    info=info,
                )
    return Verdict(True, info=info)


def eta_image_characterizations(x: FiniteSpace, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """The unit images inside the two constructions match their
    presentations: irreducibility for the lower one (the base is sober, as
    every finite T0 space is), non-empty box-splitting for the upper."""
    a_ps = lower_powerspace(x, limits)
    k_ps = upper_powerspace(x, limits)
    eta_a = monad_unit("A", x, ps=a_ps, limits=limits)
    eta_k = monad_unit("K", x, ps=k_ps, limits=limits)
    basis = x.opens(limits)

    a_space = a_ps.space
    a_pairs = [(a_space.full_mask, a_ps.diamond(x.full_mask))]
    for u in basis:
        for v in basis:
            a_pairs.append((a_ps.diamond(u) & a_ps.diamond(v), a_ps.diamond(u & v)))
    a_set = pi02_eval(Pi02Presentation(a_space, tuple(a_pairs))).mask
    if a_set != mask_of(eta_a.table):
        return Verdict(False, witness={"side": "lower", "condition_set": set_label(a_space.names, a_set)},
                       info={"checker": "eta_image_characterizations"})

    k_space = k_ps.space
    k_pairs = [(k_ps.box(0), 0)]
    for u in basis:
        for v in basis:
            k_pairs.append((k_ps.box(u | v), k_ps.box(u) | k_ps.box(v)))
    k_set = pi02_eval(Pi02Presentation(k_space, tuple(k_pairs))).mask
    if k_set != mask_of(eta_k.table):
        return Verdict(False, witness={"side": "upper", "condition_set": set_label(k_space.names, k_set)},
                       info={"checker": "eta_image_characterizations"})
    return Verdict(
        True,
        info={"checker": "eta_image_characterizations",
              "lower_range": len(set(eta_a.table)), "upper_range": len(set(eta_k.table))},
    )
