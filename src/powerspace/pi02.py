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
from .powerspaces import KIND_LOWER, KIND_UPPER, ConstructedSpace, Powers, _powers, functor_map, monad_unit


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
        """An object whose "pairs" lists pairs of indices into
        ambient.opens(); anything else raises ValueError."""
        if not (isinstance(data, dict) and isinstance(data.get("pairs"), list)):
            raise ValueError("a presentation must be an object with a list of 'pairs'")
        opens = ambient.opens(limits)
        pairs = []
        for entry in data["pairs"]:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                    and all(type(i) is int and 0 <= i < len(opens) for i in entry)):
                raise ValueError(f"{entry!r} is not a pair of open indices")
            pairs.append((opens[entry[0]], opens[entry[1]]))
        return Pi02Presentation(ambient, tuple(pairs))


def pi02_eval(p: Pi02Presentation) -> PtSet:
    """Points satisfying every implication of the presentation."""
    m = p.ambient.full_mask
    for u, v in p.pairs:
        m &= (p.ambient.full_mask ^ u) | v
    return PtSet(p.ambient, m)


def presentation_for_subset(ambient: FiniteSpace, mask: int) -> Pi02Presentation:
    """A presentation whose evaluation is exactly the given subset."""
    if mask & ~ambient.full_mask:
        raise ValueError(f"mask {mask} is not a subset of the {ambient.n} points")
    pairs = []
    for x in range(ambient.n):
        if not (mask >> x) & 1:
            up_x = ambient.up[x]
            pairs.append((up_x, up_x & ~(1 << x)))
    return Pi02Presentation(ambient, tuple(pairs))


def validate_embedding(e: SpaceMap) -> None:
    """Injectivity, continuity and openness onto the image.  An open
    around i contains up(i), so the image of every open is relatively
    open exactly when the image of each up(i) is."""
    if not e.is_injective():
        raise NotEmbedding("not injective")
    if not check_continuous(e).holds:
        raise NotEmbedding("not continuous")
    i = _first_unembedded(e)
    if i is not None:
        raise NotEmbedding(f"image of up({e.domain.names[i]}) is not relatively open")


def lower_embedding_range(
    e: SpaceMap, p: Pi02Presentation, dom_ps: ConstructedSpace, cod_ps: ConstructedSpace,
) -> Verdict:
    """The lifting of an embedding onto a presented subspace has, inside
    the lower construction over the ambient space, exactly the points
    satisfying the relativized diamond implications.  dom_ps and cod_ps
    are A of e's domain and of the ambient space.  b runs over the
    up-sets: an implication holding for each holds for their unions."""
    lifted = _lift_embedding(e, p, KIND_LOWER, dom_ps, cod_ps)
    basis = e.codomain.up
    sel = 0
    for i, a in enumerate(cod_ps.extents):
        if all((not (a & (b & u)) or a & (b & v)) for b in basis for u, v in p.pairs):
            sel |= 1 << i
    return _range_verdict("lower_embedding_range", "closed_set", e, lifted, sel)


def upper_embedding_range(
    e: SpaceMap, p: Pi02Presentation, dom_ps: ConstructedSpace, cod_ps: ConstructedSpace,
    limits: Limits = DEFAULT_LIMITS,
) -> Verdict:
    """Dual of lower_embedding_range with boxes over unions, over K of
    e's domain and of the ambient space.  Here b runs over the full open
    family: a box implication that holds for two opens need not hold for
    their union, so the up-sets alone do not decide it."""
    lifted = _lift_embedding(e, p, KIND_UPPER, dom_ps, cod_ps)
    basis = e.codomain.opens(limits)
    sel = 0
    for i, k in enumerate(cod_ps.extents):
        if all((k & ~(b | u) or not (k & ~(b | v))) for b in basis for u, v in p.pairs):
            sel |= 1 << i
    return _range_verdict("upper_embedding_range", "saturated_set", e, lifted, sel)


def _lift_embedding(e: SpaceMap, p: Pi02Presentation, kind: str, dom_ps, cod_ps) -> SpaceMap:
    """e lifted through the constructions of the given kind, once e is
    an embedding whose image p carves out."""
    if dom_ps.kind != kind:
        raise ValueError(f"the {kind} range theorem lifts through {kind}, not {dom_ps.label}")
    validate_embedding(e)
    if pi02_eval(p).mask != e.image_mask():
        raise PresentationMismatch("presentation does not carve out the image of the embedding")
    return functor_map(e, dom_ps, cod_ps)


def _range_verdict(checker: str, witness_key: str, e: SpaceMap, lifted: SpaceMap, sel: int) -> Verdict:
    """Holds when the condition set sel is the range of the lifting and
    the lifting is an embedding."""
    rng = mask_of(lifted.table)
    info = {"checker": checker, "ambient_points": e.codomain.n, "range": len(lifted.table)}
    if sel != rng:
        which = next(bits(sel ^ rng))
        return Verdict(False, witness={witness_key: lifted.codomain.names[which],
                                       "in_condition_set": bool((sel >> which) & 1)}, info=info)
    if _first_unembedded(lifted) is not None:
        return Verdict(False, witness={"failure": "lifting is not an embedding"}, info=info)
    return Verdict(True, info=info)


def _first_unembedded(f: SpaceMap) -> int | None:
    """The first point i whose up-set is not the preimage of the up-set
    of f(i), or None if there is none.  None says f is an order embedding,
    which on finite spaces is a topological embedding; injectivity follows
    by antisymmetry."""
    dom_up, cod_up = f.domain.up, f.codomain.up
    return next((i for i, v in enumerate(f.table) if f.preimage_mask(cod_up[v]) != dom_up[i]), None)


def lens_pi02(x: FiniteSpace | Powers, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """The lens pairs inside the product of the lower and upper
    constructions are exactly the pairs passing the two mixed-modality
    implications, and the subspace they span is the convex construction."""
    pw = _powers(x, limits)
    x, a_ps, k_ps, lens = pw.base, pw.A, pw.K, pw.L
    prod, pairs = space_product(a_ps.space, k_ps.space)
    basis = x.opens(pw.limits)
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
    chosen = tuple(pair_pos[(a_ps.point_of(a), k_ps.point_of(k))] for a, k in lens.extents)
    li = _first_unembedded(SpaceMap(lens.space, prod, chosen))
    if li is not None:
        return Verdict(False, witness={"failure": "subspace order differs", "pair": lens.space.names[li]}, info=info)
    return Verdict(True, info=info)


def eta_image_characterizations(x: FiniteSpace | Powers, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """The unit images inside the two constructions match their
    presentations: irreducibility for the lower one (the base is sober, as
    every finite T0 space is), non-empty box-splitting for the upper."""
    pw = _powers(x, limits)
    x, a_ps, k_ps = pw.base, pw.A, pw.K
    eta_a = monad_unit(a_ps)
    eta_k = monad_unit(k_ps)
    basis = x.opens(pw.limits)

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
