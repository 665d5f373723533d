"""The four hyperspace constructions A, K, L, O over a finite base space.

A(X)  closed subsets, topology generated by the sets diamond(U)
K(X)  saturated (hence compact) subsets, generated by the sets box(U)
L(X)  lens pairs <closed, saturated>, generated by both families
O(X)  the open-set lattice under inclusion with its upper-set topology

On a finite base the specialization order of each topology is plain
extent inclusion: subset for A and O, superset for K, and for L the
Egli-Milner order (closed parts by subset, saturated parts by superset).
Each space's upper sets are enumerated once, by FiniteSpace.opens: K
and O share them as their extents, A reads their complements, and L
pairs the two lists.
Every construction leaves through _finish, which indexes the extents by
base point once; ConstructedSpace reads the modal sets off that index.
All four read the covers of the base's lattice of opens, found once per
space (FiniteSpace.open_covers): A, K and O fold their order along them,
and L its extremal points.  Every construction order is derived and
trusted: it enters through FiniteSpace._trusted with its Hasse edges,
skipping the row pass that validates parsed orders and lists their
edges, and L's edges come from its one-part covers
(ConstructedSpace._lens_covers).  Points are sorted by extent so
identical expressions always rebuild identical spaces.  A point of A, K
or O is named by its extent, but only when something first reads the
names (core.Labels): deciding the paper's maps reads orders and
extents, and only witnesses, fingerprints and exports read names.  L
names its lenses when it is built, since every export of it reads them
all.  Powers keeps the constructions of one subject, each built once
and named by its word (pw.AK is A(K(X))).

The maps between constructions take the constructions they run between
and read the kind off them: monad_unit(pw.A) is X -> A(X),
monad_mult(pw.AA) is A(A(X)) -> A(X), structure_map(pw.KO) is
K(O(X)) -> O(X), and functor_map(f, px.A, py.A) lifts f: X -> Y to
A(X) -> A(Y), for px, py the towers over X and Y.

The empty lens <{}, {}> qualifies under the pair conditions and is kept;
parts of the literature insist on non-empty lenses, this library does not.
"""

from __future__ import annotations

from array import array
from dataclasses import InitVar, dataclass, field
from functools import cache, cached_property, wraps
from itertools import chain, islice
from typing import Iterable, Sequence

from .config import DEFAULT_LIMITS, Limits
from .core import (
    FiniteSpace,
    Labels,
    PtSet,
    SpaceMap,
    Verdict,
    check_continuous,
    intersection_of,
    set_label,
    transpose,
    union_of,
)
from .errors import NotContinuous, PowerspaceTooLarge

KIND_LOWER = "A"
KIND_UPPER = "K"
KIND_CONVEX = "L"
KIND_OPENS = "O"


@dataclass(frozen=True)
class ConstructedSpace:
    """A finite space whose points carry extents over a base space.

    extents holds one base mask per point, except for kind L where each
    entry is a (closed, saturated) pair.  members[p] is the mask of points
    whose extent, or closed part for L, contains base point p; sat_members
    is the same over the saturated parts of L, and members itself for the
    other kinds.  names are the point labels when the caller has them (K
    and O share the labels the base keeps for its opens), else None: each
    point is then labelled by its extent, a lens by its two parts.  The
    names of A, K and O are a core.Labels, made the first time something
    reads them; those of L are made here.

    The order of A, K and O is extent inclusion (subset for A and O,
    superset for K), folded here along the base's open_covers and
    trusted, as _derived_order argues.  The lens order of L is read off
    the members index, one row per lens, with its Hasse edges derived by
    _lens_covers and trusted as well.
    """

    base: FiniteSpace
    kind: str
    extents: tuple
    label: str
    members: tuple[int, ...]
    sat_members: tuple[int, ...]
    names: InitVar[Labels | None]
    base_construction: "ConstructedSpace | None" = None
    space: FiniteSpace = field(init=False)
    _steps: "tuple[array, array] | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self, names):
        base_names = self.base.names
        if self.kind == KIND_CONVEX:
            # lenses share their parts, so each distinct part is labelled and selected on once
            closed, saturated = map(set, zip(*self.extents))
            part = {m: set_label(base_names, m) for m in closed | saturated}
            names = tuple(f"<{part[a]},{part[k]}>" for a, k in self.extents)
            containing = {a: self.containing(a) for a in closed}
            box = {k: self.box(k) for k in saturated}
            up = tuple(containing[a] & box[k] for a, k in self.extents)
            space, steps = FiniteSpace._trusted(names, up, self._lens_covers()), None
        else:
            if names is None:
                names = Labels(base_names, self.extents)
            up, edges, steps = self._derived_order()
            space = FiniteSpace._trusted(names, up, edges)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_steps", steps)

    def _derived_order(self) -> tuple[tuple[int, ...], array, tuple[array, array]]:
        """The rows, the Hasse edges as FiniteSpace._trusted takes them,
        and the fold steps of A, K or O, with one OR per edge of the base's
        open_covers: (hi, lo, piv) says opens[lo] is opens[hi] less piv.

        K and O take the opens as extents, by superset and by subset, and
        point a of A is the complement of open last - a, so the edge is
        the cover pair (hi, lo) of K, (lo, hi) of O and (last - hi,
        last - lo) of A.  In a finite poset up[i] is i with the rows of
        its covers (Davey and Priestley, ch. 1): the edges come by hi
        ascending, so the rows of K and A fold forward along them and
        those of O backward.  By i then j, the edges of K are as given,
        those of A reversed and mirrored, and those of O sorted.  Each
        edge also fills a fold step: prev of the larger extent is the
        smaller.
        """
        hi, lo, piv = self.base.open_covers
        n = len(self.extents)
        up = [1 << i for i in range(n)]
        zeros = bytes(4 * n)
        prev, step = array("I", zeros), array("I", zeros)
        if self.kind == KIND_UPPER:
            for big, small, p in zip(hi, lo, piv):
                up[big] |= up[small]
                prev[big], step[big] = small, p
            pairs = zip(hi, lo)
        elif self.kind == KIND_LOWER:
            last = n - 1
            for big, small, p in zip(hi, lo, piv):
                a, b = last - big, last - small
                up[a] |= up[b]
                prev[b], step[b] = a, p
            pairs = zip(map(last.__sub__, reversed(hi)), map(last.__sub__, reversed(lo)))
        else:
            for big, small, p in zip(reversed(hi), reversed(lo), reversed(piv)):
                up[small] |= up[big]
                prev[big], step[big] = small, p
            pairs = sorted(zip(lo, hi))
        return tuple(up), array("I", chain.from_iterable(pairs)), (prev, step)

    def _lens_covers(self) -> array:
        """The Hasse edges of the lens order of L, as FiniteSpace._trusted
        takes them.

        A lens (A, K) has max(A) in K and min(K) in A, and lies below
        (A', K') when A is inside A' and K holds K'.  A cover changes
        exactly one part: if (A, K) < (A', K'), then (A', K) is a lens,
        as max(A') lies in K', inside K, and min(K) in A, inside A', and
        it lies between the two, so a pair that changes both parts is no
        cover, and one that changes a single part covers exactly when no
        lens sharing that other part lies between.
        With K fixed, the lenses correspond, by A = down(D), to the
        down-sets D = A & K of the subposet K that hold min(K), and two
        such down-sets cover each other when they differ by one point
        (Birkhoff; Davey and Priestley, ch. 5): the covers above (A, K)
        are (A | down(p), K), p minimal in K - A, so A may grow by
        several points.
        With A fixed, dually, the lenses correspond, by K = up(U), to the
        up-sets U = A & K of the subposet A that hold max(A), and min(U)
        is min(K): the covers above (A, K) are (A, up(A & K - q)), q in
        min(K) and not maximal in A.
        The empty lens is comparable only to itself and gets no edge.
        Each target is one lookup in a dict local to this call, and the
        targets of a lens are sorted, so the edges come by i then j.  Many
        lenses share K - A and A & K - q, so minimal points and
        saturations are memoized for the call.
        """
        base = self.base
        down, up = base.down, base.up
        minimal, saturation = cache(base.minimal_points), cache(base.saturation_mask)
        index = {e: i for i, e in enumerate(self.extents)}
        edges = array("I")
        for i, (a, k) in enumerate(self.extents):
            above = []
            q = minimal(k)
            while q:
                low = q & -q
                q ^= low
                if up[low.bit_length() - 1] & a != low:
                    above.append(index[a, saturation(a & k ^ low)])
            p = minimal(k & ~a)
            while p:
                low = p & -p
                p ^= low
                above.append(index[a | down[low.bit_length() - 1], k])
            above.sort()
            for j in above:
                edges.append(i)
                edges.append(j)
        return edges

    def diamond(self, m: int) -> int:
        """Points whose extent, or closed part for L, meets the base set m."""
        return union_of(self.members, m)

    def box(self, m: int) -> int:
        """Points whose extent, or saturated part for L, lies inside the base set m."""
        return ((1 << len(self.extents)) - 1) & ~union_of(self.sat_members, self.base.full_mask & ~m)

    def containing(self, m: int) -> int:
        """Points whose extent, or closed part for L, contains the base set m."""
        return intersection_of(self.members, m, (1 << len(self.extents)) - 1)

    @cached_property
    def _index(self) -> dict:
        return {e: i for i, e in enumerate(self.extents)}

    def point_of(self, extent) -> int:
        return self.points_of((extent,))[0]

    def points_of(self, extents: Iterable) -> tuple[int, ...]:
        """The point of each extent, in one pass; ValueError names the
        first extent that is not a point of this construction."""
        try:
            # a list first: tuple() of an iterator would shrink a ten-slot block onto a small free list
            return tuple(list(map(self._index.__getitem__, extents)))
        except KeyError as missing:
            raise ValueError(f"{missing.args[0]!r} is not a point of {self.label}") from None

    def _fold_steps(self) -> tuple[array, array]:
        """prev and piv of the folds below, filled in by _derived_order;
        slot 0, the empty extent, is unused."""
        if self._steps is None:
            raise ValueError(f"no one-point steps on {self.label}: a lens cover changes one part, but possibly by several base points")
        return self._steps

    def unions(self, parts: Sequence[int]) -> list[int]:
        """Per point, the union of parts[p] over the base points p of its
        extent, with one OR per point.  Kinds A, K and O; L raises.

        The cover edges of the construction are exactly the pairs of
        extents one base point apart (_derived_order), and each non-empty
        extent has one smaller by a point: drop a maximal point (A) or a
        minimal one (K, O).  The steps keep one such edge per point k > 0:
        prev[k], the point whose extent is one base point smaller, and
        piv[k], that base point.  extents[0] is the empty set, and the
        extents are sorted ascending as masks, so a subset comes earlier
        and prev[k] < k: in point order out[prev[k]] is already known, and
        out[k] = out[prev[k]] | parts[piv[k]].
        """
        prev, piv = self._fold_steps()
        out = [0]
        append = out.append
        for p, q in islice(zip(prev, piv), 1, None):
            append(out[p] | parts[q])
        return out

    def intersections(self, parts: Sequence[int], full: int) -> list[int]:
        """Per point, the intersection of parts[p] over the base points p
        of its extent, full for the empty extent; folded as unions is."""
        prev, piv = self._fold_steps()
        out = [full]
        append = out.append
        for p, q in islice(zip(prev, piv), 1, None):
            append(out[p] & parts[q])
        return out

    def __repr__(self):
        return f"ConstructedSpace({self.label}, points={self.space.n})"


def _base_of(x, kind: str, limits: Limits) -> tuple[FiniteSpace, "ConstructedSpace | None", str, tuple[int, ...]]:
    """The base space, its construction if any, the label of kind over it,
    and the base's opens, the one enumeration every construction reads its
    extents from: K and O take the opens, A their complements, the closed
    sets, taken in reverse so that they stay ascending, and L both.  A
    cap refusal of the base's opens is reported as the size of the
    construction label names: they or their complements are its points,
    or for L embed in them (A as <A, up(A)>, K as <down(K), K>)."""
    if isinstance(x, ConstructedSpace):
        base, base_cs, label = x.space, x, f"{kind}({x.label})"
    else:
        base, base_cs, label = x, None, f"{kind}(X)"
    try:
        return base, base_cs, label, base.opens(limits)
    except PowerspaceTooLarge:
        raise PowerspaceTooLarge(f"{label} would have more than {limits.max_construction_points} points") from None


def _finish(base, base_cs, label, kind, extents) -> ConstructedSpace:
    names = None
    if kind == KIND_CONVEX:
        members, sat_members = (transpose(parts, base.n) for parts in zip(*extents))
    elif kind == KIND_LOWER:
        members = sat_members = transpose(extents, base.n)
    else:
        # the extents of K and O are the base's opens: one index and one Labels for both
        members, names = base.opens_index
        sat_members = members
    return ConstructedSpace(base, kind, tuple(extents), label, members, sat_members, names, base_cs)


def lower_powerspace(x, limits: Limits = DEFAULT_LIMITS) -> ConstructedSpace:
    """A(X): closed sets with the lower Vietoris topology."""
    base, base_cs, label, opens = _base_of(x, KIND_LOWER, limits)
    closed = [base.full_mask ^ u for u in reversed(opens)]
    return _finish(base, base_cs, label, KIND_LOWER, closed)


def upper_powerspace(x, limits: Limits = DEFAULT_LIMITS) -> ConstructedSpace:
    """K(X): saturated sets with the upper Vietoris topology.  On a finite
    space they are the opens, so K(X) and O(X) share one extent tuple."""
    base, base_cs, label, opens = _base_of(x, KIND_UPPER, limits)
    return _finish(base, base_cs, label, KIND_UPPER, opens)


def convex_powerspace(x, limits: Limits = DEFAULT_LIMITS) -> ConstructedSpace:
    """L(X): lens pairs <A, K> with Cl(A&K) = A and up(A&K) = K.

    A closed A and a saturated K form a lens exactly when max(A) lies in
    K and min(K) lies in A, so each candidate pair costs two ANDs against
    extremal points read off the base's open_covers: an edge (hi, lo,
    piv) drops the minimal point piv from the open hi and adds it, then
    maximal, to the closed set last - lo.  If max(A) lies in K, it lies in
    A&K, and Cl(A&K), which is inside the closed A, holds down(max(A)),
    which on a finite space is all of A.  Conversely, if Cl(A&K) = A, a
    maximal point of A lies below some point of A&K, inside A, so it is
    that point and lies in K.  The argument for K is dual.  Both lists
    come sorted, so the pairs come sorted by (A, K).  The lenses can
    outnumber the opens, so the cap is checked again once they are listed.
    """
    base, base_cs, label, saturated = _base_of(x, KIND_CONVEX, limits)
    closed = [base.full_mask ^ u for u in reversed(saturated)]
    last = len(saturated) - 1
    bottom, top = [0] * len(saturated), [0] * len(saturated)
    for big, small, p in zip(*base.open_covers):
        bottom[big] |= 1 << p
        top[last - small] |= 1 << p
    bottoms = list(zip(saturated, bottom))
    extents = [(a, k) for a, t in zip(closed, top) for k, b in bottoms if not (t & ~k or b & ~a)]
    if len(extents) > limits.max_construction_points:
        raise PowerspaceTooLarge(f"{label} would have {len(extents)} points")
    return _finish(base, base_cs, label, KIND_CONVEX, extents)


def open_lattice(x, limits: Limits = DEFAULT_LIMITS) -> ConstructedSpace:
    """O(X): the opens of X ordered by inclusion, upper-set topology."""
    base, base_cs, label, opens = _base_of(x, KIND_OPENS, limits)
    return _finish(base, base_cs, label, KIND_OPENS, opens)


BUILDERS = {
    KIND_LOWER: lower_powerspace,
    KIND_UPPER: upper_powerspace,
    KIND_CONVEX: convex_powerspace,
    KIND_OPENS: open_lattice,
}


class Powers:
    """The construction cache of one subject X.

    Any word over A, K, L, O names an iterated construction, read from
    the right: pw.AK is A(K(X)), pw.OO is O(O(X)).  Each is built once,
    through BUILDERS from the construction its tail names, and kept.
    over(word) is the tower over the construction word names, sharing
    these builds: pw.over("K").A is pw.AK.  pairs keeps what checks
    computed on this tower (canonical pairs, checker verdicts), keyed by
    the function that computed it.

    The four modal tables (diamonds, boxes, triangles, nablas) read A(X)
    and K(X) only.  K(X) and O(X) take the base's opens as extents, in
    one order, and share one members index (FiniteSpace.opens_index), so
    K.diamond and K.containing are O.diamond and O.containing, and a
    table over K.extents is indexed like O(X): none of them builds O(X).
    """

    def __init__(self, base: FiniteSpace, limits: Limits = DEFAULT_LIMITS):
        self.base = base
        self.limits = limits
        self.pairs: dict = {}
        self._built: dict = {"": base}  # by full word, shared with the towers over() makes
        self._under = ""  # the full word of the construction this tower sits over
        self._towers: dict[str, Powers] = {}

    def __getattr__(self, word: str) -> ConstructedSpace:
        if not word or word.strip("AKLO"):
            raise AttributeError(word)
        cs = self.__dict__[word] = self._build(word + self._under)
        return cs

    def _build(self, word: str):
        cs = self._built.get(word)
        if cs is None:
            cs = self._built[word] = BUILDERS[word[0]](self._build(word[1:]), self.limits)
        return cs

    def over(self, word: str) -> "Powers":
        """The tower whose subject is the space of getattr(self, word)."""
        tower = self._towers.get(word)
        if tower is None:
            tower = self._towers[word] = Powers(getattr(self, word).space, self.limits)
            tower._built, tower._under = self._built, word + self._under
        return tower

    @cached_property
    def diamonds(self) -> tuple[int, ...]:
        """diamond(U) over A(X) for each open U, in K(X)'s order, so indexed like O(X)."""
        return tuple(map(self.A.diamond, self.K.extents))

    @cached_property
    def boxes(self) -> tuple[int, ...]:
        """box(U) over K(X) for each open U, in K(X)'s order, so indexed like O(X)."""
        return tuple(map(self.K.box, self.K.extents))

    @cached_property
    def triangles(self) -> tuple[int, ...]:
        """The opens meeting each closed set, as points of O(X) read off K.diamond, indexed like A(X)."""
        return tuple(map(self.K.diamond, self.A.extents))

    @cached_property
    def nablas(self) -> tuple[int, ...]:
        """The opens containing each compact, as points of O(X) read off K.containing, indexed like K(X)."""
        return tuple(map(self.K.containing, self.K.extents))


def _kept_on_powers(compute):
    """compute(pw), computed once per tower and kept in pw.pairs, so every
    later check on the same tower reuses it."""

    @wraps(compute)
    def kept(pw: Powers):
        got = pw.pairs.get(compute.__name__)
        if got is None:
            got = pw.pairs[compute.__name__] = compute(pw)
        return got

    return kept


# ---------------------------------------------------------------------------
# the maps between constructions: each reads its kind and its ends off the
# constructions it is handed, checks them, and builds nothing


def functor_map(f: SpaceMap, dom_ps: ConstructedSpace, cod_ps: ConstructedSpace) -> SpaceMap:
    """Lift a continuous f: X -> Y through the construction kind that
    dom_ps and cod_ps share.

    A(f) takes a closed set to the closure of its image, K(f) to the
    saturation of its image.  O is contravariant: O(f) sends an open of Y
    to its preimage, so dom_ps is O(Y) and cod_ps is O(X).
    """
    kind = dom_ps.kind
    if kind != cod_ps.kind or kind == KIND_CONVEX:
        raise ValueError(f"no functorial action from {dom_ps.label} to {cod_ps.label}")
    src, dst = (f.codomain, f.domain) if kind == KIND_OPENS else (f.domain, f.codomain)
    if dom_ps.base != src or cod_ps.base != dst:
        raise ValueError(f"{dom_ps.label} -> {cod_ps.label} is not over the ends of the map in the {kind} direction")
    require_continuous(f)
    return SpaceMap(dom_ps.space, cod_ps.space, lift_table(f.table, dom_ps, cod_ps))


def require_continuous(f: SpaceMap) -> None:
    """Raise NotContinuous, naming check_continuous's witness, unless f
    is continuous, as a map must be to lift."""
    verdict = check_continuous(f)
    if not verdict.holds:
        raise NotContinuous(f"cannot lift a discontinuous map (witness {verdict.witness.label()})")


def lift_table(table: tuple[int, ...], dom_ps: ConstructedSpace, cod_ps: ConstructedSpace) -> tuple[int, ...]:
    """The table of the lift from dom_ps to cod_ps of the map whose table
    is given, with the ends functor_map checks taken as read and the map
    taken as continuous.

    Each extent goes to the union of parts over its base points, folded
    along dom_ps's cover edges: for A and K the closure or saturation of
    each point's image, so the union is that of the image; for O, an open
    of Y, the fiber over each point, so the union is the open's preimage.

    The lifts preserve composition and identities, so the naturality
    squares paste along composites and may be decided on generating maps
    (core.generating_maps).  For continuous f: X -> Y and g: Y -> Z:

    - A: g(cl S) lies inside cl g(S), as g is continuous, so
      cl g(cl f(C)) = cl g(f(C)), the closure of the image under g o f;
    - K: g(up S) lies inside up g(S), as g is monotone, so
      up g(up f(K)) = up g(f(K));
    - O: (g o f)^-1(U) = f^-1(g^-1(U)), the composite taken the other
      way round;
    - a closed, saturated or open set is its own hull or preimage under
      the identity.

    By induction on a word, its lift is T applied to the lift of its
    tail, and that lift is again continuous (the naturality squares check
    it before lifting it further), so every word's lift is a functor,
    contravariant for an odd number of O's.
    """
    if dom_ps.kind == KIND_OPENS:
        parts = transpose([1 << y for y in table], dom_ps.base.n)
    else:
        hull = cod_ps.base.down if dom_ps.kind == KIND_LOWER else cod_ps.base.up
        parts = [hull[y] for y in table]
    return cod_ps.points_of(dom_ps.unions(parts))


def monad_unit(ps: ConstructedSpace) -> SpaceMap:
    """X -> T(X) for ps = T(X); a point goes to its closure (A) or
    saturation (K)."""
    if ps.kind not in (KIND_LOWER, KIND_UPPER):
        raise ValueError(f"no monad unit into {ps.label}")
    hull = ps.base.down if ps.kind == KIND_LOWER else ps.base.up
    return SpaceMap(ps.base, ps.space, ps.points_of(hull))


def monad_mult(pps: ConstructedSpace) -> SpaceMap:
    """T(T(X)) -> T(X) by union of extents, for pps = T(T(X)) built over
    the construction T(X)."""
    ps = pps.base_construction
    if pps.kind not in (KIND_LOWER, KIND_UPPER) or ps is None or ps.kind != pps.kind:
        raise ValueError(f"no monad multiplication on {pps.label}")
    return SpaceMap(pps.space, ps.space, ps.points_of(_joins(pps)))


def structure_map(t: ConstructedSpace) -> SpaceMap:
    """T(O(X)) -> O(X) for t = T(O(X)) built over the construction O(X):
    a closed family of opens goes to its union (A), a saturated family to
    its intersection (K)."""
    lattice = t.base_construction
    if t.kind not in (KIND_LOWER, KIND_UPPER) or lattice is None or lattice.kind != KIND_OPENS:
        raise ValueError(f"no structure map on {t.label}")
    return SpaceMap(t.space, lattice.space, lattice.points_of(_joins(t)))


def _joins(t: ConstructedSpace) -> list[int]:
    """Per point of t = T(C), C the construction t is built over, the
    union of the extents of C it holds, or their intersection (the whole
    base for none) for K over O(X)."""
    c = t.base_construction
    if t.kind == KIND_UPPER and c.kind == KIND_OPENS:
        return t.intersections(c.extents, c.base.full_mask)
    return t.unions(c.extents)


# ---------------------------------------------------------------------------
# law checks used by the suites; their caps are those of the tower


def monad_laws(kind: str, pw: Powers) -> Verdict:
    """Unit and associativity laws of the chosen monad on pw's subject.  The square
    over T(T(T(x))) is decided on the points of T(T(x)), as
    _first_point_apart argues; the triple level is never enumerated."""
    t1, t2 = getattr(pw, kind), getattr(pw, kind * 2)
    eta, mult = monad_unit(t1), monad_mult(t2)
    eta_t = monad_unit(t2)
    t_eta = functor_map(eta, t1, t2)
    for i in range(t1.space.n):
        if mult.table[eta_t.table[i]] != i:
            return Verdict(False, witness={"law": "mult after unit", "point": t1.space.names[i]})
        if mult.table[t_eta.table[i]] != i:
            return Verdict(False, witness={"law": "mult after lifted unit", "point": t1.space.names[i]})
    if not check_continuous(eta).holds or not check_continuous(mult).holds:
        return Verdict(False, witness={"law": "continuity of unit or multiplication"})
    bad = _first_point_apart(t2, mult)
    if bad is not None:
        return Verdict(False, witness={"law": "associativity", "point": t2.space.names[bad]})
    return Verdict(True, info={"checker": "monad_laws", "kind": kind, "checks": 2 * t1.space.n + t2.space.n})


def monad_preimage_identities(kind: str, pw: Powers) -> Verdict:
    """Subbasic preimages of the unit and multiplication.

    For A: unit pulls diamond(U) back to U and mult pulls it back to
    diamond(diamond(U)); dually for K with box.
    """
    modal = ConstructedSpace.diamond if kind == KIND_LOWER else ConstructedSpace.box
    base, t1, t2 = pw.base, getattr(pw, kind), getattr(pw, kind * 2)
    eta, mult = monad_unit(t1), monad_mult(t2)
    for u in base.opens(pw.limits):
        m1 = modal(t1, u)
        if eta.preimage_mask(m1) != u:
            return Verdict(False, witness={"identity": "unit", "open": set_label(base.names, u)})
        if mult.preimage_mask(m1) != modal(t2, m1):
            return Verdict(False, witness={"identity": "mult", "open": set_label(base.names, u)})
    return Verdict(True, info={"checker": "monad_preimage_identities", "kind": kind, "opens": len(base.opens(pw.limits))})


def algebra_laws(kind: str, pw: Powers) -> Verdict:
    """Eilenberg-Moore laws for union on A(O(X)) or intersection on K(O(X))."""
    lattice, t1 = pw.O, getattr(pw, kind + KIND_OPENS)
    struct, eta = structure_map(t1), monad_unit(t1)
    for i in range(lattice.space.n):
        if struct.table[eta.table[i]] != i:
            return Verdict(False, witness={"law": "structure after unit", "open": lattice.space.names[i]})
    if not check_continuous(struct).holds:
        return Verdict(False, witness={"law": "continuity of the structure map"})
    bad = _first_point_apart(t1, struct)
    if bad is not None:
        return Verdict(False, witness={"law": "structure after mult", "point": t1.space.names[bad]})
    return Verdict(True, info={"checker": "algebra_laws", "kind": kind, "checks": t1.space.n})


def _first_point_apart(t: ConstructedSpace, struct: SpaceMap) -> int | None:
    """The first point a of t = T(C) where the extent of struct(a) is not
    _joins(t)[a], or None; struct: t -> C is a mult or structure map.

    Given the unit law struct(eta(c)) = c and monotone struct, which the
    callers check first, this decides the square struct . mult =
    struct . T(struct) over T(t) without enumerating T(t).  Sound: once
    this holds, both composites send unions of families to unions (for K
    over O(X), intersections) of their values; every family is the union
    of the principal families of its points, down-sets being the free
    join-completion (Johnstone, Stone Spaces, ch. II); and on the
    principal family of q both sides are struct(q): mult gives q back,
    t being ordered by extent inclusion, and by monotonicity the hull of
    the image is eta(struct(q)), which the unit law sends to struct(q).
    Complete: the unit law and monotonicity force struct(a) to be the
    least upper bound of a in C for A, the greatest lower bound for K
    (Joyal and Tierney, 1984): eta(c) lies below a (above, for K) for c
    in a, and a inside eta(u) for each bound u.  In C that bound is the
    join above, so this pass and the literal square agree on every table
    that passes the unit law and monotonicity.
    """
    extents = t.base_construction.extents
    return next((a for a, (i, j) in enumerate(zip(struct.table, _joins(t))) if extents[i] != j), None)


# ---------------------------------------------------------------------------
# serialization


def construction_to_json(cs: ConstructedSpace) -> dict:
    """The construction's points with their extents as base point names,
    and its Hasse edges.  Each distinct base set is listed once per call:
    a lens space repeats few closed and saturated parts over many points."""
    convex = cs.kind == KIND_CONVEX
    distinct = {m for pair in cs.extents for m in pair} if convex else set(cs.extents)
    points = {m: PtSet(cs.base, m).points() for m in distinct}
    if convex:
        extents = [{"closed": list(points[a]), "saturated": list(points[k])} for a, k in cs.extents]
    else:
        extents = [list(points[e]) for e in cs.extents]
    names = cs.space.names
    return {
        "label": cs.label,
        "kind": cs.kind,
        "base_points": list(cs.base.names),
        "points": [{"name": name, "extent": e} for name, e in zip(names, extents)],
        "order": [[names[i], names[j]] for i, j in cs.space.covers()],
    }


def to_dot(x: ConstructedSpace | FiniteSpace) -> str:
    """Hasse diagram of the specialization order of a construction, its
    extents as labels, or of a bare space, its point names as labels."""
    space = x.space if isinstance(x, ConstructedSpace) else x
    lines = [
        "digraph {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for i, name in enumerate(space.names):
        safe = name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{safe}"];')
    for i, j in space.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
