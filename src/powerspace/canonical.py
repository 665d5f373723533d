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

from .config import DEFAULT_LIMITS, Limits
from .core import (
    FiniteSpace,
    PtSet,
    SpaceMap,
    Verdict,
    check_continuous,
    compose,
    identity_map,
    intersection_of,
    set_label,
    union_of,
)
from .errors import ShapeMismatch
from .powerspaces import (
    KIND_CONVEX,
    KIND_LOWER,
    KIND_OPENS,
    KIND_UPPER,
    ConstructedSpace,
    Powers,
    _kept_on_powers,
    _powers,
    functor_map,
    lift_table,
    monad_mult,
    monad_unit,
    require_continuous,
)


@dataclass(frozen=True)
class CanonicalMapPair:
    """A forward/backward pair between two constructions over one base."""

    name: str
    forward: SpaceMap
    backward: SpaceMap
    base: FiniteSpace
    dom: ConstructedSpace
    cod: ConstructedSpace


@_kept_on_powers
def sigma_tau(pw: Powers) -> CanonicalMapPair:
    """sigma sends a closed family of compacts to the closed sets meeting
    all of them; tau is the analogous map back."""
    meeting_k = tuple(map(pw.A.diamond, pw.K.extents))
    meeting_a = tuple(map(pw.K.diamond, pw.A.extents))
    full_a, full_k = pw.A.space.full_mask, pw.K.space.full_mask
    fwd = pw.AK.intersections(meeting_k, full_a)
    bwd = pw.KA.intersections(meeting_a, full_k)
    return CanonicalMapPair(
        "sigma/tau",
        SpaceMap(pw.AK.space, pw.KA.space, pw.KA.points_of(fwd)),
        SpaceMap(pw.KA.space, pw.AK.space, pw.AK.points_of(bwd)),
        pw.base,
        pw.AK,
        pw.KA,
    )


@_kept_on_powers
def phi_psi(pw: Powers) -> CanonicalMapPair:
    """phi reads off which opens a compact family of closed sets hits
    everywhere; psi intersects the diamonds of a Scott-open family."""
    full_o, full_a = pw.O.space.full_mask, pw.A.space.full_mask
    fwd = pw.KA.intersections(pw.triangles, full_o)
    bwd = pw.OO.intersections(pw.diamonds, full_a)
    return CanonicalMapPair(
        "phi/psi",
        SpaceMap(pw.KA.space, pw.OO.space, pw.OO.points_of(fwd)),
        SpaceMap(pw.OO.space, pw.KA.space, pw.KA.points_of(bwd)),
        pw.base,
        pw.KA,
        pw.OO,
    )


@_kept_on_powers
def alpha_beta(pw: Powers) -> CanonicalMapPair:
    """alpha unions the boxes of a closed family of opens; beta collects
    the opens whose box sits inside a given open family of compacts."""
    full_o, full_k = pw.O.space.full_mask, pw.K.space.full_mask
    fwd = pw.AO.unions(pw.boxes)
    # an open's box leaves the family exactly when the open contains a compact outside it;
    # that outside shrinks along the steps of OK's fold, and a union cannot drop a part,
    # so beta keeps one union_of per extent
    bwd = [full_o & ~union_of(pw.nablas, full_k & ~u_fam) for u_fam in pw.OK.extents]
    return CanonicalMapPair(
        "alpha/beta",
        SpaceMap(pw.AO.space, pw.OK.space, pw.OK.points_of(fwd)),
        SpaceMap(pw.OK.space, pw.AO.space, pw.AO.points_of(bwd)),
        pw.base,
        pw.AO,
        pw.OK,
    )


@_kept_on_powers
def gamma_delta(pw: Powers) -> CanonicalMapPair:
    """gamma intersects the diamonds of a compact family of opens; delta
    collects the opens whose diamond contains a given open family."""
    full_o, full_a = pw.O.space.full_mask, pw.A.space.full_mask
    fwd = pw.KO.intersections(pw.diamonds, full_a)
    bwd = pw.OA.intersections(pw.triangles, full_o)
    return CanonicalMapPair(
        "gamma/delta",
        SpaceMap(pw.KO.space, pw.OA.space, pw.OA.points_of(fwd)),
        SpaceMap(pw.OA.space, pw.KO.space, pw.KO.points_of(bwd)),
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
    """Mutually inverse (table equality) and continuous both ways.

    check_continuous decides continuity as monotonicity along the Hasse
    edges of the domain, so no step loops over pairs of points.  On finite
    spaces that also decides that phi/psi is an order isomorphism
    (monotone both ways), so no pair needs a separate order check.
    """
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
    generator it quantifies over.

    The four identities over the opens U of the base take one preimage
    each.  The other four are indexed by families: alpha by the closed
    families F of compacts (points of A(K(X))), beta and delta by the
    Scott-open families H of opens (O(O(X))), gamma by the compact
    families F of closed sets (K(A(X))).  Each reads f^-1(M(F)) = N(g(F)),
    f the map pulled back, M and N modal formers and g the composite on
    the right.  Each is decided in two passes over generators:

    (a) the identity itself at each generator, one preimage each;
    (b) at every family, g equals the join of g at the generators that
        make up the family, one union_of or intersection_of and no
        preimage.

    Per identity, the generators, how a family is made of them, the join
    in (b), and why N is injective on the values g takes:

    alpha  down(k), k in K(X); F is the union over k in F; g = phi o
           sigma, union; AO.diamond on upper sets of O(X): U lies in H
           exactly when down(U) meets H.
    beta   up(U), U in O(X); H is the union over U in H; g = tau o psi,
           union; OK.diamond on lower sets of K(X): k lies in F exactly
           when up(k) meets F.
    delta  O(X) minus down(U), U in O(X); H is the intersection over U
           not in H; g = psi, union over U not in H; OA.containing on
           upper sets of A(X): such a set is the least point of its
           containing-set.
    gamma  up(a), a in A(X); F is the union over a in F; g = phi,
           intersection over a in F; KO.box on upper sets of O(X): such
           a set is the greatest point of its box.

    Why this decides the identity on every family.  Preimages keep unions
    and intersections; diamond keeps unions, box keeps intersections and
    containing turns unions into intersections.  So, whatever the tables
    hold, the left side at a family is the join (union for alpha and
    beta, intersection for delta and gamma) of the left side at its
    generators, and under (b) so is the right side: (a) and (b) give the
    identity at every family, the empty join included.  Conversely, if
    the identity holds at F and at its generators, N(g(F)) = N(join of g
    at them); joins of upper (lower) sets are upper (lower), so
    injectivity gives (b) at F.  Hence the passes hold exactly when the
    literal identity holds on every family, a failure in (a) names a
    failing generator, and a failure in (b), with (a) holding, names a
    failing family.

    The family identities run before those over the opens, so a wrong
    composite fails at the family where it goes wrong.  info["instances"]
    counts the instances the verdict covers: one per family and identity,
    four per open.  info["generators"] counts the preimages taken.
    """
    pw = _powers(x, limits)
    st = sigma_tau(pw)
    pp = phi_psi(pw)
    ab = alpha_beta(pw)
    gd = gamma_delta(pw)
    sigma, tau, phi, psi = st.forward.table, st.backward.table, pp.forward.table, pp.backward.table
    o_full = pw.O.space.full_mask

    def fail(identity, parameter):
        return Verdict(False, witness={"identity": identity, "parameter": parameter})

    # (identity, families, f, M, generators, g, N, join of g over a family's generators)
    family_identities = (
        ("alpha^-1(triangle F) = diamond phi(sigma(F))", pw.AK, ab.forward, pw.OK.diamond,
         pw.K.space.down, lambda i: pw.OO.extents[phi[sigma[i]]], pw.AO.diamond, union_of),
        ("beta^-1(diamond H) = triangle tau(psi(H))", pw.OO, ab.backward, pw.AO.diamond,
         pw.O.space.up, lambda i: pw.AK.extents[tau[psi[i]]], pw.OK.diamond, union_of),
        ("delta^-1(box H) = nabla psi(H)", pw.OO, gd.backward, pw.KO.box,
         [o_full & ~d for d in pw.O.space.down], lambda i: pw.KA.extents[psi[i]], pw.OA.containing,
         lambda at_gens, h: union_of(at_gens, o_full & ~h)),
        ("gamma^-1(nabla F) = box phi(F)", pw.KA, gd.forward, pw.OA.containing,
         pw.A.space.up, lambda i: pw.OO.extents[phi[i]], pw.KO.box,
         lambda at_gens, fam: intersection_of(at_gens, fam, o_full)),
    )
    instances = preimages = 0
    for identity, fams, f, modal, gens, g, modal_of_g, join in family_identities:
        gen_points = fams.points_of(gens)
        for i in gen_points:  # pass (a)
            if f.preimage_mask(modal(fams.extents[i])) != modal_of_g(g(i)):
                return fail(identity, fams.space.names[i])
        at_gens = [g(i) for i in gen_points]
        for i, fam in enumerate(fams.extents):  # pass (b)
            if g(i) != join(at_gens, fam):
                return fail(identity, fams.space.names[i])
        instances += fams.space.n
        preimages += len(gen_points)

    # over opens U of the base
    for u_idx, u in enumerate(pw.O.extents):
        box_dia = pw.KA.box(pw.diamonds[u_idx])
        dia_box = pw.AK.diamond(pw.boxes[u_idx])
        boxtimes = pw.OO.members[u_idx]
        for identity, f, opened, want in (
            ("sigma^-1(box diamond U) = diamond box U", st.forward, box_dia, dia_box),
            ("tau^-1(diamond box U) = box diamond U", st.backward, dia_box, box_dia),
            ("phi^-1(boxtimes U) = box diamond U", pp.forward, boxtimes, box_dia),
            ("psi^-1(box diamond U) = boxtimes U", pp.backward, box_dia, boxtimes),
        ):
            if f.preimage_mask(opened) != want:
                return fail(identity, set_label(pw.base.names, u))
    instances += 4 * len(pw.O.extents)
    preimages += 4 * len(pw.O.extents)

    info = {"checker": "check_preimage_identities", "instances": instances, "generators": preimages}
    return Verdict(True, info=info)


# ---------------------------------------------------------------------------
# naturality squares


# Each square names a canonical pair, the two constructions it runs between
# and the direction of the pair it checks.  sigma, tau, phi, psi ride
# covariantly on f; the other four mix in the contravariant O, so their
# squares run against the arrows: beta_X o O(K(f)) = A(O(f)) o beta_Y, etc.
_SQUARES = {
    "sigma": (sigma_tau, "AK", "KA", "forward"),
    "tau": (sigma_tau, "AK", "KA", "backward"),
    "phi": (phi_psi, "KA", "OO", "forward"),
    "psi": (phi_psi, "KA", "OO", "backward"),
    "alpha": (alpha_beta, "AO", "OK", "forward"),
    "beta": (alpha_beta, "AO", "OK", "backward"),
    "gamma": (gamma_delta, "KO", "OA", "forward"),
    "delta": (gamma_delta, "KO", "OA", "backward"),
}


class _Lifts:
    """The lift tables of a continuous f: X -> Y over the towers px and py.

    lifts[word] is the table of T1(T2(...(f))) for a word such as "AK",
    computed at most once, by lift_table from the table of the word's
    tail.  An odd number of O's turns the arrow around, so that lift runs
    from py's construction to px's.  Each map lifted (f and, for the
    squares, A(f), K(f) and O(f)) has its continuity checked once, before
    its first lift, so a discontinuous f fails there as in functor_map.
    Nothing refers back to the object, so the tables go with it.
    """

    def __init__(self, f: SpaceMap, px: Powers, py: Powers):
        if f.domain != px.base or f.codomain != py.base:
            raise ValueError("the towers are not over the ends of the map")
        self.px, self.py = px, py
        self._made: dict[str, tuple[int, ...]] = {"": f.table}
        self._continuous: set[str] = set()

    def _ends(self, word: str) -> tuple[ConstructedSpace, ConstructedSpace]:
        src, dst = (self.py, self.px) if word.count(KIND_OPENS) % 2 else (self.px, self.py)
        return getattr(src, word), getattr(dst, word)

    def __getitem__(self, word: str) -> tuple[int, ...]:
        table = self._made.get(word)
        if table is None:
            tail = word[1:]
            inner = self[tail]
            if tail not in self._continuous:
                ends = (self.px.base, self.py.base) if not tail else (cs.space for cs in self._ends(tail))
                require_continuous(SpaceMap(*ends, inner))
                self._continuous.add(tail)
            table = self._made[word] = lift_table(inner, *self._ends(word))
        return table

    def square(self, which: str) -> Verdict:
        builder, dom, cod, direction = _SQUARES[which]
        tx, ty = builder(self.px), builder(self.py)
        if cod.count(KIND_OPENS) % 2:
            tx, ty = ty, tx  # contravariant: the pair over X sits on the left
        before, after = self[dom], self[cod]
        if direction == "backward":
            before, after = after, before
        mx, my = getattr(tx, direction), getattr(ty, direction)
        my_table = my.table
        left = [my_table[b] for b in before]  # my o before
        right = [after[a] for a in mx.table]  # after o mx
        if left != right:
            i = next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)
            names = my.codomain.names
            return Verdict(
                False,
                witness={"square": which, "point": mx.domain.names[i], "left": names[left[i]], "right": names[right[i]]},
            )
        return Verdict(True, info={"checker": "check_naturality", "square": which, "points": mx.domain.n})


def naturality_squares(f: SpaceMap, px: Powers, py: Powers):
    """Yield (square, verdict) for the eight squares over a continuous
    f: X -> Y, px and py the towers over X and Y, in the order sigma,
    tau, phi, psi, alpha, beta, gamma, delta.  The ten lifts of f the
    squares need are shared between them and built on first use; they go
    when the generator does."""
    lifts = _Lifts(f, px, py)
    for which in _SQUARES:
        yield which, lifts.square(which)


def check_naturality(f: SpaceMap, which: str, px: Powers, py: Powers) -> Verdict:
    """Commutation of the named square over a continuous f: X -> Y, px
    and py the towers over X and Y, with only the lifts that square
    needs."""
    lifts = _Lifts(f, px, py)
    if which not in _SQUARES:
        raise ValueError(f"unknown map name {which!r}")
    return lifts.square(which)


# ---------------------------------------------------------------------------
# distributive-law diagrams


def _beck_diagrams(pw: Powers, f: str, s: str, lam_of) -> list[str]:
    """The four compatibility diagrams for a law T1(T2(X)) => T2(T1(X)).

    f is the outer monad of the law's domain (T1), s the inner (T2);
    every construction is read off pw by its word.  Returns the names of
    the failing diagrams, empty when all hold.
    """
    t1, t2 = getattr(pw, f), getattr(pw, s)
    t12, t21 = getattr(pw, f + s), getattr(pw, s + f)  # lambda runs t12 -> t21
    lam = lam_of(pw)
    failures = []

    # units
    eta2 = monad_unit(t2)
    t1_eta2 = functor_map(eta2, t1, t12)
    eta2_at_t1 = monad_unit(t21)
    if compose(lam, t1_eta2).table != eta2_at_t1.table:
        failures.append(f"lambda o {f}(eta_{s}) = eta_{s} at {f}")
    eta1_at_t2 = monad_unit(t12)
    eta1 = monad_unit(t1)
    t2_eta1 = functor_map(eta1, t2, t21)
    if compose(lam, eta1_at_t2).table != t2_eta1.table:
        failures.append(f"lambda o eta_{f} at {s} = {s}(eta_{f})")

    # multiplication of the inner monad
    mu2 = monad_mult(getattr(pw, s + s))
    t1_mu2 = functor_map(mu2, getattr(pw, f + s + s), t12)
    lam_at_t2 = lam_of(pw.over(s))
    t2_lam = functor_map(lam, getattr(pw, s + f + s), getattr(pw, s + s + f))
    mu2_at_t1 = monad_mult(getattr(pw, s + s + f))
    left = compose(lam, t1_mu2)
    right = compose(mu2_at_t1, compose(t2_lam, lam_at_t2))
    if left.table != right.table:
        failures.append(f"mu_{s} square")

    # multiplication of the outer monad
    mu1 = monad_mult(getattr(pw, f + f))
    mu1_at_t2 = monad_mult(getattr(pw, f + f + s))
    t1_lam = functor_map(lam, getattr(pw, f + f + s), getattr(pw, f + s + f))
    lam_at_t1 = lam_of(pw.over(f))
    t2_mu1 = functor_map(mu1, getattr(pw, s + f + f), t21)
    left = compose(lam, mu1_at_t2)
    right = compose(t2_mu1, compose(lam_at_t1, t1_lam))
    if left.table != right.table:
        failures.append(f"mu_{f} square")
    return failures


def check_distributive_law(x, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Beck compatibility of sigma as a law A(K(X)) => K(A(X)).

    Triple-nested constructions blow up fast; the tower's Limits cap
    bounds them, as it bounds every build.  The mirrored diagrams for tau
    (as a law K(A(X)) => A(K(X))) are evaluated as well and recorded, so
    the verdict states which orientation satisfies the diagrams instead of
    presuming one.
    """
    pw = _powers(x, limits)
    sigma_fail = _beck_diagrams(pw, KIND_LOWER, KIND_UPPER, lambda p: sigma_tau(p).forward)
    tau_fail = _beck_diagrams(pw, KIND_UPPER, KIND_LOWER, lambda p: sigma_tau(p).backward)
    info = {
        "checker": "check_distributive_law",
        "sigma_orientation_holds": not sigma_fail,
        "tau_orientation_holds": not tau_fail,
    }
    if sigma_fail:
        return Verdict(False, witness={"orientation": "sigma", "diagrams": sigma_fail}, info=info)
    return Verdict(True, info=info)
