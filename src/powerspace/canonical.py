"""The eight canonical maps between iterated constructions over a base X.

    sigma: A(K(X)) -> K(A(X))      tau:   K(A(X)) -> A(K(X))
    phi:   K(A(X)) -> O(O(X))      psi:   O(O(X)) -> K(A(X))
    alpha: A(O(X)) -> O(K(X))      beta:  O(K(X)) -> A(O(X))
    gamma: K(O(X)) -> O(A(X))      delta: O(A(X)) -> K(O(X))

Every map is materialized as an explicit point table, so equality of maps
is table equality and every verification is an exhaustive loop.  Finite
T0 spaces meet all the side conditions these maps need (they are sober,
locally compact, consonant), so all four pairs are homeomorphisms here;
the verifications below re-derive that instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .config import DEFAULT_LIMITS, Limits
from .core import (
    FiniteSpace,
    PtSet,
    SpaceMap,
    Verdict,
    bits,
    check_continuous,
    compose,
    identity_map,
    intersection_of,
    set_label,
    union_of,
)
from .errors import NotContinuous, PowerspaceTooLarge, ShapeMismatch
from .powerspaces import (
    KIND_CONVEX,
    KIND_LOWER,
    KIND_OPENS,
    KIND_UPPER,
    ConstructedSpace,
    functor_map,
    lower_powerspace,
    monad_mult,
    monad_unit,
    open_lattice,
    upper_powerspace,
)


class Powers:
    """Lazily built tower of constructions over one base space."""

    def __init__(self, base: FiniteSpace, limits: Limits = DEFAULT_LIMITS):
        self.base = base
        self.limits = limits

    @cached_property
    def A(self) -> ConstructedSpace:
        return lower_powerspace(self.base, self.limits)

    @cached_property
    def K(self) -> ConstructedSpace:
        return upper_powerspace(self.base, self.limits)

    @cached_property
    def O(self) -> ConstructedSpace:
        return open_lattice(self.base, self.limits)

    @cached_property
    def AK(self) -> ConstructedSpace:
        return lower_powerspace(self.K, self.limits)

    @cached_property
    def KA(self) -> ConstructedSpace:
        return upper_powerspace(self.A, self.limits)

    @cached_property
    def OO(self) -> ConstructedSpace:
        return open_lattice(self.O, self.limits)

    @cached_property
    def AO(self) -> ConstructedSpace:
        return lower_powerspace(self.O, self.limits)

    @cached_property
    def OK(self) -> ConstructedSpace:
        return open_lattice(self.K, self.limits)

    @cached_property
    def KO(self) -> ConstructedSpace:
        return upper_powerspace(self.O, self.limits)

    @cached_property
    def OA(self) -> ConstructedSpace:
        return open_lattice(self.A, self.limits)

    @cached_property
    def diamonds(self) -> tuple[int, ...]:
        """diamond(U) over the points of A(X), indexed like O(X)."""
        return tuple(map(self.A.diamond, self.O.extents))

    @cached_property
    def boxes(self) -> tuple[int, ...]:
        """box(U) over the points of K(X), indexed like O(X)."""
        return tuple(map(self.K.box, self.O.extents))

    @cached_property
    def triangles(self) -> tuple[int, ...]:
        """The opens meeting each closed set, over O(X), indexed like A(X)."""
        return tuple(map(self.O.diamond, self.A.extents))

    @cached_property
    def nablas(self) -> tuple[int, ...]:
        """The opens containing each compact, over O(X), indexed like K(X)."""
        return tuple(map(self.O.containing, self.K.extents))


def _powers(x, limits: Limits) -> Powers:
    if isinstance(x, Powers):
        return x
    return Powers(x, limits)


@dataclass(frozen=True)
class CanonicalMapPair:
    """A forward/backward pair between two constructions over one base."""

    name: str
    forward: SpaceMap
    backward: SpaceMap
    base: FiniteSpace
    dom: ConstructedSpace
    cod: ConstructedSpace


def sigma_tau(x, limits: Limits = DEFAULT_LIMITS) -> CanonicalMapPair:
    """sigma sends a closed family of compacts to the closed sets meeting
    all of them; tau is the analogous map back."""
    pw = _powers(x, limits)
    meeting_k = tuple(map(pw.A.diamond, pw.K.extents))
    meeting_a = tuple(map(pw.K.diamond, pw.A.extents))
    full_a, full_k = pw.A.space.full_mask, pw.K.space.full_mask
    fwd = [pw.KA.point_of(intersection_of(meeting_k, fam, full_a)) for fam in pw.AK.extents]
    bwd = [pw.AK.point_of(intersection_of(meeting_a, fam, full_k)) for fam in pw.KA.extents]
    return CanonicalMapPair(
        "sigma/tau",
        SpaceMap(pw.AK.space, pw.KA.space, tuple(fwd)),
        SpaceMap(pw.KA.space, pw.AK.space, tuple(bwd)),
        pw.base,
        pw.AK,
        pw.KA,
    )


def phi_psi(x, limits: Limits = DEFAULT_LIMITS) -> CanonicalMapPair:
    """phi reads off which opens a compact family of closed sets hits
    everywhere; psi intersects the diamonds of a Scott-open family."""
    pw = _powers(x, limits)
    full_o, full_a = pw.O.space.full_mask, pw.A.space.full_mask
    fwd = [pw.OO.point_of(intersection_of(pw.triangles, fam, full_o)) for fam in pw.KA.extents]
    bwd = [pw.KA.point_of(intersection_of(pw.diamonds, fam, full_a)) for fam in pw.OO.extents]
    return CanonicalMapPair(
        "phi/psi",
        SpaceMap(pw.KA.space, pw.OO.space, tuple(fwd)),
        SpaceMap(pw.OO.space, pw.KA.space, tuple(bwd)),
        pw.base,
        pw.KA,
        pw.OO,
    )


def alpha_beta(x, limits: Limits = DEFAULT_LIMITS) -> CanonicalMapPair:
    """alpha unions the boxes of a closed family of opens; beta collects
    the opens whose box sits inside a given open family of compacts."""
    pw = _powers(x, limits)
    full_o, full_k = pw.O.space.full_mask, pw.K.space.full_mask
    fwd = [pw.OK.point_of(union_of(pw.boxes, fam)) for fam in pw.AO.extents]
    # an open's box leaves the family exactly when the open contains a compact outside it
    bwd = [pw.AO.point_of(full_o & ~union_of(pw.nablas, full_k & ~u_fam)) for u_fam in pw.OK.extents]
    return CanonicalMapPair(
        "alpha/beta",
        SpaceMap(pw.AO.space, pw.OK.space, tuple(fwd)),
        SpaceMap(pw.OK.space, pw.AO.space, tuple(bwd)),
        pw.base,
        pw.AO,
        pw.OK,
    )


def gamma_delta(x, limits: Limits = DEFAULT_LIMITS) -> CanonicalMapPair:
    """gamma intersects the diamonds of a compact family of opens; delta
    collects the opens whose diamond contains a given open family."""
    pw = _powers(x, limits)
    full_o, full_a = pw.O.space.full_mask, pw.A.space.full_mask
    fwd = [pw.OA.point_of(intersection_of(pw.diamonds, fam, full_a)) for fam in pw.KO.extents]
    bwd = [pw.KO.point_of(intersection_of(pw.triangles, u_fam, full_o)) for u_fam in pw.OA.extents]
    return CanonicalMapPair(
        "gamma/delta",
        SpaceMap(pw.KO.space, pw.OA.space, tuple(fwd)),
        SpaceMap(pw.OA.space, pw.KO.space, tuple(bwd)),
        pw.base,
        pw.KO,
        pw.OA,
    )


PAIR_BUILDERS = {
    "sigma/tau": sigma_tau,
    "phi/psi": phi_psi,
    "alpha/beta": alpha_beta,
    "gamma/delta": gamma_delta,
}


def verify_pair(pair: CanonicalMapPair) -> Verdict:
    """Mutually inverse, continuous both ways; phi/psi also as an order
    isomorphism (monotone in both directions)."""
    fb = compose(pair.backward, pair.forward)
    bf = compose(pair.forward, pair.backward)
    if fb != identity_map(pair.dom.space):
        return Verdict(False, witness={"pair": pair.name, "failure": "backward(forward) is not the identity"})
    if bf != identity_map(pair.cod.space):
        return Verdict(False, witness={"pair": pair.name, "failure": "forward(backward) is not the identity"})
    for direction, m in (("forward", pair.forward), ("backward", pair.backward)):
        v = check_continuous(m)
        if not v.holds:
            return Verdict(False, witness={"pair": pair.name, "failure": f"{direction} not continuous", "open": v.witness.label()})
    if pair.name == "phi/psi":
        for direction, m in (("forward", pair.forward), ("backward", pair.backward)):
            for i in range(m.domain.n):
                for j in bits(m.domain.up[i]):
                    if not m.codomain.leq(m.table[i], m.table[j]):
                        return Verdict(False, witness={"pair": pair.name, "failure": f"{direction} not monotone"})
    return Verdict(True, info={"checker": "verify_pair", "pair": pair.name, "points": pair.dom.space.n})


# ---------------------------------------------------------------------------
# modal generators


@dataclass(frozen=True)
class ModalGenerator:
    """One of the five modal set formers.

    diamond   extents meeting an open of the base
    box       extents inside an open of the base
    nabla     opens of the base's base containing a saturated set
    triangle  opens of the base's base meeting a closed set
    boxtimes  families over a doubled lattice containing a given open
    """

    shape: str
    argument: PtSet


def modal_set(space: ConstructedSpace, gen: ModalGenerator) -> PtSet:
    shape, arg = gen.shape, gen.argument
    if shape in ("diamond", "box"):
        if arg.space != space.base:
            raise ShapeMismatch("argument must live in the base space")
        if not space.base.is_open(arg.mask):
            raise ShapeMismatch(f"{shape} needs an open argument")
        if shape == "diamond":
            if space.kind not in (KIND_LOWER, KIND_CONVEX):
                raise ShapeMismatch("diamond applies to lower or convex constructions")
            return PtSet(space.space, space.diamond(arg.mask))
        if space.kind not in (KIND_UPPER, KIND_CONVEX):
            raise ShapeMismatch("box applies to upper or convex constructions")
        return PtSet(space.space, space.box(arg.mask))
    if shape in ("nabla", "triangle"):
        if space.kind != KIND_OPENS:
            raise ShapeMismatch(f"{shape} applies to an open-set lattice")
        if arg.space != space.base:
            raise ShapeMismatch("argument must live in the base space")
        if shape == "nabla":
            if space.base.saturation_mask(arg.mask) != arg.mask:
                raise ShapeMismatch("nabla needs a saturated argument")
            return PtSet(space.space, space.containing(arg.mask))
        if space.base.closure_mask(arg.mask) != arg.mask:
            raise ShapeMismatch("triangle needs a closed argument")
        return PtSet(space.space, space.diamond(arg.mask))
    if shape == "boxtimes":
        inner = space.base_construction
        if space.kind != KIND_OPENS or inner is None or inner.kind != KIND_OPENS:
            raise ShapeMismatch("boxtimes applies to a doubled open-set lattice")
        if arg.space != inner.base:
            raise ShapeMismatch("argument must be an open of the inner base")
        if not inner.base.is_open(arg.mask):
            raise ShapeMismatch("boxtimes needs an open argument")
        return PtSet(space.space, space.members[inner.point_of(arg.mask)])
    raise ShapeMismatch(f"unknown modal shape {shape!r}")


# ---------------------------------------------------------------------------
# the eight subbasic preimage identities


def check_preimage_identities(x, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Verify the preimage identity of each canonical map on every
    generator it quantifies over."""
    pw = _powers(x, limits)
    st = sigma_tau(pw, limits)
    pp = phi_psi(pw, limits)
    ab = alpha_beta(pw, limits)
    gd = gamma_delta(pw, limits)
    dia, boxes = pw.diamonds, pw.boxes
    n_opens = len(pw.O.extents)
    checked = 0

    def fail(identity, parameter):
        return Verdict(False, witness={"identity": identity, "parameter": parameter})

    # over opens U of the base
    for u_idx in range(n_opens):
        u_label = set_label(pw.base.names, pw.O.extents[u_idx])
        box_dia = pw.KA.box(dia[u_idx])
        dia_box = pw.AK.diamond(boxes[u_idx])
        boxtimes = pw.OO.members[u_idx]
        checked += 4
        if st.forward.preimage_mask(box_dia) != dia_box:
            return fail("sigma^-1(box diamond U) = diamond box U", u_label)
        if st.backward.preimage_mask(dia_box) != box_dia:
            return fail("tau^-1(diamond box U) = box diamond U", u_label)
        if pp.forward.preimage_mask(boxtimes) != box_dia:
            return fail("phi^-1(boxtimes U) = box diamond U", u_label)
        if pp.backward.preimage_mask(box_dia) != boxtimes:
            return fail("psi^-1(box diamond U) = boxtimes U", u_label)

    # alpha over closed families of compacts
    for i, fam in enumerate(pw.AK.extents):
        phi_sigma = pw.OO.extents[pp.forward.table[st.forward.table[i]]]
        checked += 1
        if ab.forward.preimage_mask(pw.OK.diamond(fam)) != pw.AO.diamond(phi_sigma):
            return fail("alpha^-1(triangle F) = diamond phi(sigma(F))", pw.AK.space.names[i])

    # beta and delta over Scott-open families of opens
    for i, fam in enumerate(pw.OO.extents):
        tau_psi = pw.AK.extents[st.backward.table[pp.backward.table[i]]]
        checked += 2
        if ab.backward.preimage_mask(pw.AO.diamond(fam)) != pw.OK.diamond(tau_psi):
            return fail("beta^-1(diamond H) = triangle tau(psi(H))", pw.OO.space.names[i])
        psi_h = pw.KA.extents[pp.backward.table[i]]
        if gd.backward.preimage_mask(pw.KO.box(fam)) != pw.OA.containing(psi_h):
            return fail("delta^-1(box H) = nabla psi(H)", pw.OO.space.names[i])

    # gamma over compact families of closed sets
    for i, fam in enumerate(pw.KA.extents):
        phi_fam = pw.OO.extents[pp.forward.table[i]]
        checked += 1
        if gd.forward.preimage_mask(pw.OA.containing(fam)) != pw.KO.box(phi_fam):
            return fail("gamma^-1(nabla F) = box phi(F)", pw.KA.space.names[i])

    return Verdict(True, info={"checker": "check_preimage_identities", "instances": checked})


# ---------------------------------------------------------------------------
# naturality squares


def check_naturality(
    f: SpaceMap,
    which: str,
    pw_dom: Powers | None = None,
    pw_cod: Powers | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> Verdict:
    """Commutation of the named square over a continuous f: X -> Y.

    sigma, tau, phi, psi ride covariantly on f.  The other four mix in the
    contravariant O, so their squares run against the arrows:
    beta_X o O(K(f)) = A(O(f)) o beta_Y and so on.
    """
    v = check_continuous(f)
    if not v.holds:
        raise NotContinuous("naturality needs a continuous map")
    px = pw_dom or Powers(f.domain, limits)
    py = pw_cod or Powers(f.codomain, limits)

    def lifted(kind, g, dom_ps, cod_ps):
        return functor_map(kind, g, dom_ps=dom_ps, cod_ps=cod_ps, limits=limits)

    kf = lifted(KIND_UPPER, f, px.K, py.K)
    af = lifted(KIND_LOWER, f, px.A, py.A)
    of = lifted(KIND_OPENS, f, py.O, px.O)

    if which in ("sigma", "tau"):
        akf = lifted(KIND_LOWER, kf, px.AK, py.AK)
        kaf = lifted(KIND_UPPER, af, px.KA, py.KA)
        sx, sy = sigma_tau(px, limits), sigma_tau(py, limits)
        if which == "sigma":
            left = compose(sy.forward, akf)
            right = compose(kaf, sx.forward)
        else:
            left = compose(sy.backward, kaf)
            right = compose(akf, sx.backward)
    elif which in ("phi", "psi"):
        kaf = lifted(KIND_UPPER, af, px.KA, py.KA)
        oof = lifted(KIND_OPENS, of, px.OO, py.OO)
        fx, fy = phi_psi(px, limits), phi_psi(py, limits)
        if which == "phi":
            left = compose(fy.forward, kaf)
            right = compose(oof, fx.forward)
        else:
            left = compose(fy.backward, oof)
            right = compose(kaf, fx.backward)
    elif which in ("alpha", "beta"):
        okf = lifted(KIND_OPENS, kf, py.OK, px.OK)
        aof = lifted(KIND_LOWER, of, py.AO, px.AO)
        ax, ay = alpha_beta(px, limits), alpha_beta(py, limits)
        if which == "beta":
            left = compose(ax.backward, okf)
            right = compose(aof, ay.backward)
        else:
            left = compose(ax.forward, aof)
            right = compose(okf, ay.forward)
    elif which in ("gamma", "delta"):
        oaf = lifted(KIND_OPENS, af, py.OA, px.OA)
        kof = lifted(KIND_UPPER, of, py.KO, px.KO)
        gx, gy = gamma_delta(px, limits), gamma_delta(py, limits)
        if which == "delta":
            left = compose(gx.backward, oaf)
            right = compose(kof, gy.backward)
        else:
            left = compose(gx.forward, kof)
            right = compose(oaf, gy.forward)
    else:
        raise ValueError(f"unknown map name {which!r}")

    if left.table != right.table:
        for i, (a, b) in enumerate(zip(left.table, right.table)):
            if a != b:
                return Verdict(
                    False,
                    witness={"square": which, "point": left.domain.names[i],
                             "left": left.codomain.names[a], "right": left.codomain.names[b]},
                )
    return Verdict(True, info={"checker": "check_naturality", "square": which, "points": left.domain.n})


# ---------------------------------------------------------------------------
# distributive-law diagrams


def _beck_diagrams(pw: Powers, first: str, second: str, lam_pair_builder, limits: Limits) -> list[str]:
    """The four compatibility diagrams for a law T1(T2(X)) => T2(T1(X)).

    first is the outer monad of the law's domain (T1), second the inner
    (T2).  Returns the names of the failing diagrams, empty when all hold.
    """
    from .powerspaces import BUILDERS

    base = pw.base
    b1, b2 = BUILDERS[first], BUILDERS[second]
    t1 = b1(base, limits)  # T1(X)
    t2 = b2(base, limits)  # T2(X)
    t12 = b1(t2, limits)   # T1 T2 X, domain of lambda
    t21 = b2(t1, limits)   # T2 T1 X, codomain of lambda
    lam = lam_pair_builder(pw, limits)
    failures = []

    # units
    eta2 = monad_unit(second, base, ps=t2, limits=limits)
    t1_eta2 = functor_map(first, eta2, dom_ps=t1, cod_ps=t12, limits=limits)
    eta2_at_t1 = monad_unit(second, t1, ps=t21, limits=limits)
    if compose(lam, t1_eta2).table != eta2_at_t1.table:
        failures.append(f"lambda o {first}(eta_{second}) = eta_{second} at {first}")
    eta1_at_t2 = monad_unit(first, t2, ps=t12, limits=limits)
    eta1 = monad_unit(first, base, ps=t1, limits=limits)
    t2_eta1 = functor_map(second, eta1, dom_ps=t2, cod_ps=t21, limits=limits)
    if compose(lam, eta1_at_t2).table != t2_eta1.table:
        failures.append(f"lambda o eta_{first} at {second} = {second}(eta_{first})")

    # multiplication of the inner monad
    t22 = b2(t2, limits)
    mu2 = monad_mult(second, base, ps=t2, pps=t22, limits=limits)
    t1_mu2 = functor_map(first, mu2, dom_ps=b1(t22, limits), cod_ps=t12, limits=limits)
    lam_at_t2 = lam_pair_builder(Powers(t2.space, limits), limits)
    t2_lam = functor_map(second, lam, dom_ps=b2(t12, limits), cod_ps=b2(t21, limits), limits=limits)
    mu2_at_t1 = monad_mult(second, t1, ps=t21, pps=b2(t21, limits), limits=limits)
    left = compose(lam, t1_mu2)
    right = compose(mu2_at_t1, compose(t2_lam, lam_at_t2))
    if left.table != right.table:
        failures.append(f"mu_{second} square")

    # multiplication of the outer monad
    t11 = b1(t1, limits)
    mu1 = monad_mult(first, base, ps=t1, pps=t11, limits=limits)
    mu1_at_t2 = monad_mult(first, t2, ps=t12, pps=b1(t12, limits), limits=limits)
    t1_lam = functor_map(first, lam, dom_ps=b1(t12, limits), cod_ps=b1(t21, limits), limits=limits)
    lam_at_t1 = lam_pair_builder(Powers(t1.space, limits), limits)
    t2_mu1 = functor_map(second, mu1, dom_ps=b2(t11, limits), cod_ps=t21, limits=limits)
    left = compose(lam, mu1_at_t2)
    right = compose(t2_mu1, compose(lam_at_t1, t1_lam))
    if left.table != right.table:
        failures.append(f"mu_{first} square")
    return failures


def check_distributive_law(x, limits: Limits = DEFAULT_LIMITS, allow_large: bool = False) -> Verdict:
    """Beck compatibility of sigma as a law A(K(X)) => K(A(X)).

    Triple-nested constructions blow up fast, so bases above two points
    are refused unless allow_large is set.  The mirrored diagrams for tau
    (as a law K(A(X)) => A(K(X))) are evaluated as well and recorded, so
    the verdict states which orientation satisfies the diagrams instead of
    presuming one.
    """
    base = x.base if isinstance(x, Powers) else x
    if base.n > 2 and not allow_large:
        raise PowerspaceTooLarge("distributive-law check is restricted to bases with at most 2 points")
    pw = _powers(x, limits)
    sigma_fail = _beck_diagrams(pw, KIND_LOWER, KIND_UPPER, lambda p, l: sigma_tau(p, l).forward, limits)
    tau_fail = _beck_diagrams(pw, KIND_UPPER, KIND_LOWER, lambda p, l: sigma_tau(p, l).backward, limits)
    info = {
        "checker": "check_distributive_law",
        "sigma_orientation_holds": not sigma_fail,
        "tau_orientation_holds": not tau_fail,
    }
    if sigma_fail:
        return Verdict(False, witness={"orientation": "sigma", "diagrams": sigma_fail}, info=info)
    return Verdict(True, info=info)
