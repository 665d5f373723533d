"""Pi-0-2 presentations and the range theorems for the liftings.

A presentation is a finite list of open pairs (U_i, V_i) carving out the
points that land in V_i whenever they land in U_i.  On a finite space
every subset has such a presentation: for each excluded point x take the
pair (up(x), up(x) minus x).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .config import DEFAULT_LIMITS, Limits
from .core import (
    FiniteSpace,
    PtSet,
    SpaceMap,
    Verdict,
    bits,
    mask_of,
    set_label,
    transpose,
    union_of,
)
from .errors import NotEmbedding, PresentationMismatch
from .powerspaces import KIND_LOWER, KIND_UPPER, ConstructedSpace, Powers, functor_map, monad_unit


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
    """Raise NotEmbedding unless e is a topological embedding: injective,
    continuous and open onto its image.  On finite spaces that is an
    order embedding, which _first_unembedded decides alone (injectivity
    follows by antisymmetry), so the error names the first point x where
    up(x) is not the preimage of up(e(x))."""
    i = _first_unembedded(e)
    if i is not None:
        x = e.domain.names[i]
        raise NotEmbedding(f"up({x}) is not the preimage of up(e({x}))")


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
) -> Verdict:
    """Dual of lower_embedding_range with boxes over unions, over K of
    e's domain and of the ambient space.  Here b runs over the full open
    family: a box implication that holds for two opens need not hold for
    their union, so the up-sets alone do not decide it.  The ambient's
    opens are K's points, in the same order, so cod_ps.extents lists them."""
    lifted = _lift_embedding(e, p, KIND_UPPER, dom_ps, cod_ps)
    basis = cod_ps.extents
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


def lens_pi02(pw: Powers) -> Verdict:
    """The lens pairs inside the product of the lower and upper
    constructions are exactly the pairs passing the two mixed-modality
    implications, and the subspace they span is the convex construction.

    The product of finite spaces carries the product order, so on the
    lens pairs the subspace order puts (A', K') above (A, K) exactly when
    A' lies above A in A(X) and K' above K in K(X).  Lens i's row is then
    the lenses over a point of up(A_i) and over a point of up(K_i), read
    off one mask of lenses per point of A(X) and of K(X); the first lens
    whose row in L(X) differs is the first that does not embed."""
    x, a_ps, k_ps, lens = pw.base, pw.A, pw.K, pw.L
    basis = x.opens(pw.limits)
    # both extent lists ascend, so the pairs come sorted
    pairs = list(product(a_ps.extents, k_ps.extents))
    by_condition = [
        (a, k)
        for a, k in pairs
        if all((not a & u or k & ~v or a & u & v) and (k & ~(u | v) or a & u or not k & ~v)
               for u, v in product(basis, basis))
    ]
    by_definition = [(a, k) for a, k in pairs if x.closure_mask(a & k) == a and x.saturation_mask(a & k) == k]
    info = {"checker": "lens_pi02", "condition_pairs": len(by_condition), "lens_pairs": len(by_definition)}
    if by_condition != by_definition:
        a, k = min(set(by_condition).symmetric_difference(by_definition))
        return Verdict(False, witness={"pair": (set_label(x.names, a), set_label(x.names, k))}, info=info)
    if tuple(by_condition) != lens.extents:
        return Verdict(False, witness={"failure": "condition set differs from the convex construction"}, info=info)
    # lens i lies over the points at_a[i] of A(X) and at_k[i] of K(X)
    at_a = a_ps.points_of(a for a, _ in lens.extents)
    at_k = k_ps.points_of(k for _, k in lens.extents)
    over_a = transpose([1 << p for p in at_a], a_ps.space.n)
    over_k = transpose([1 << q for q in at_k], k_ps.space.n)
    li = next((i for i, (p, q, row) in enumerate(zip(at_a, at_k, lens.space.up))
               if union_of(over_a, a_ps.space.up[p]) & union_of(over_k, k_ps.space.up[q]) != row), None)
    if li is not None:
        return Verdict(False, witness={"failure": "subspace order differs", "pair": lens.space.names[li]}, info=info)
    return Verdict(True, info=info)


def eta_image_characterizations(pw: Powers) -> Verdict:
    """The unit images inside the two constructions match their
    presentations: irreducibility for the lower one (the base is sober, as
    every finite T0 space is), non-empty box-splitting for the upper.

    The presentations run over the pairs (U, V) of opens.  K's points are
    the opens, in order, so U & V and U | V are found among them, and
    each open's diamond over A(X) and box over K(X) are the tower's
    tables pw.diamonds and pw.boxes, which build no O(X)."""
    a_ps, k_ps = pw.A, pw.K
    eta_a = monad_unit(a_ps)
    eta_k = monad_unit(k_ps)
    opens = k_ps.extents  # opens[0] is the empty set, opens[-1] the whole base
    diamonds, boxes = pw.diamonds, pw.boxes

    a_space = a_ps.space
    meets = k_ps.points_of(u & v for u, v in product(opens, repeat=2))
    a_pairs = [(a_space.full_mask, diamonds[-1])] + [
        (du & dv, diamonds[m]) for (du, dv), m in zip(product(diamonds, repeat=2), meets)]
    a_set = pi02_eval(Pi02Presentation(a_space, tuple(a_pairs))).mask
    if a_set != mask_of(eta_a.table):
        return Verdict(False, witness={"side": "lower", "condition_set": set_label(a_space.names, a_set)},
                       info={"checker": "eta_image_characterizations"})

    k_space = k_ps.space
    joins = k_ps.points_of(u | v for u, v in product(opens, repeat=2))
    k_pairs = [(boxes[0], 0)] + [(boxes[j], bu | bv) for (bu, bv), j in zip(product(boxes, repeat=2), joins)]
    k_set = pi02_eval(Pi02Presentation(k_space, tuple(k_pairs))).mask
    if k_set != mask_of(eta_k.table):
        return Verdict(False, witness={"side": "upper", "condition_set": set_label(k_space.names, k_set)},
                       info={"checker": "eta_image_characterizations"})
    return Verdict(
        True,
        info={"checker": "eta_image_characterizations",
              "lower_range": len(set(eta_a.table)), "upper_range": len(set(eta_k.table))},
    )
