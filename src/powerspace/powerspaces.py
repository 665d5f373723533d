"""The four hyperspace constructions A, K, L, O over a finite base space.

A(X)  closed subsets, topology generated by the sets diamond(U)
K(X)  saturated (hence compact) subsets, generated by the sets box(U)
L(X)  lens pairs <closed, saturated>, generated by both families
O(X)  the open-set lattice under inclusion with its upper-set topology

On a finite base the specialization order of each topology is plain
extent inclusion: subset for A and O, superset for K, and for L the
Egli-Milner order (closed parts by subset, saturated parts by superset).
Every construction leaves through _finish, which indexes the extents by
base point once; ConstructedSpace reads the order and the modal sets off
that index.  Points are sorted by extent so identical expressions always
rebuild identical spaces.  Powers keeps the constructions of one subject,
each built once and named by its word (pw.AK is A(K(X))).

The maps between constructions take the constructions they run between
and read the kind off them: monad_unit(pw.A) is X -> A(X),
monad_mult(pw.AA) is A(A(X)) -> A(X), structure_map(pw.KO) is
K(O(X)) -> O(X), and functor_map(f, px.A, py.A) lifts f: X -> Y to
A(X) -> A(Y), for px, py the towers over X and Y.

The empty lens <{}, {}> qualifies under the pair conditions and is kept;
parts of the literature insist on non-empty lenses, this library does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps
from itertools import repeat

from .config import DEFAULT_LIMITS, Limits
from .core import (
    FiniteSpace,
    PtSet,
    SpaceMap,
    Verdict,
    check_continuous,
    count_upper_sets,
    enumerate_lower_sets,
    enumerate_upper_sets,
    intersection_of,
    mask_of,
    set_label,
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
    other kinds.  The order of space is read off this index and validated
    by FiniteSpace.
    """

    base: FiniteSpace
    kind: str
    extents: tuple
    label: str
    members: tuple[int, ...]
    sat_members: tuple[int, ...]
    base_construction: "ConstructedSpace | None" = None
    space: FiniteSpace = field(init=False)

    def __post_init__(self):
        names = self.base.names
        if self.kind == KIND_CONVEX:
            # lenses share their parts, so each distinct part is labelled once
            part = {m: set_label(names, m) for m in {m for pair in self.extents for m in pair}}
            labels = tuple(f"<{part[a]},{part[k]}>" for a, k in self.extents)
            up = tuple(self.containing(a) & self.box(k) for a, k in self.extents)
        else:
            labels = tuple(set_label(names, e) for e in self.extents)
            up = tuple(map(self.box if self.kind == KIND_UPPER else self.containing, self.extents))
        object.__setattr__(self, "space", FiniteSpace(labels, up))

    def diamond(self, m: int) -> int:
        """Points whose extent, or closed part for L, meets the base set m."""
        return union_of(self.members, m)

    def box(self, m: int) -> int:
        """Points whose extent, or saturated part for L, lies inside the base set m."""
        return ((1 << len(self.extents)) - 1) & ~union_of(self.sat_members, self.base.full_mask & ~m)

    def containing(self, m: int) -> int:
        """Points whose extent, or closed part for L, contains the base set m."""
        return intersection_of(self.members, m, (1 << len(self.extents)) - 1)

    def subbasis(self, limits: Limits = DEFAULT_LIMITS) -> list[int]:
        """The generating opens listed in the module docstring, U running
        over the opens of the base.  Built on demand for the topology
        audits, which compare the least neighborhoods it generates with
        those of the order."""
        opens = self.base.opens(limits)
        if self.kind == KIND_OPENS:
            return [mask_of(j for j, v in enumerate(self.extents) if not (u & ~v)) for u in opens]
        dia = [self.diamond(u) for u in opens] if self.kind in (KIND_LOWER, KIND_CONVEX) else []
        box = [self.box(u) for u in opens] if self.kind in (KIND_UPPER, KIND_CONVEX) else []
        return dia + box

    @cached_property
    def _index(self) -> dict:
        return {e: i for i, e in enumerate(self.extents)}

    def point_of(self, extent) -> int:
        try:
            return self._index[extent]
        except KeyError:
            raise ValueError(f"{extent!r} is not a point of {self.label}") from None

    def __repr__(self):
        return f"ConstructedSpace({self.label}, points={self.space.n})"


def _base_of(x) -> tuple[FiniteSpace, "ConstructedSpace | None", str]:
    if isinstance(x, ConstructedSpace):
        return x.space, x, x.label
    return x, None, "X"


def _members(n: int, extents: list[int]) -> tuple[int, ...]:
    """members[p]: bit i set when base point p is in extents[i].

    The extents, last first, are written as one string of n-digit binary
    numerals, so extent i's numeral starts at (len - 1 - i) * n and holds
    bit p at offset n - 1 - p.  Column p is then the slice from n - 1 - p
    in steps of n, extent len - 1 first, which int(..., 2) reads back as
    members[p]: one C-level pass per base point, none per extent bit.
    """
    digits = "".join(map(format, reversed(extents), repeat(f"0{n}b")))
    return tuple(int(digits[n - 1 - p :: n] or "0", 2) for p in range(n))


def _finish(base, base_cs, label, kind, extents, limits) -> ConstructedSpace:
    if len(extents) > limits.max_construction_points:
        raise PowerspaceTooLarge(f"{label} would have {len(extents)} points")
    if kind == KIND_CONVEX:
        members = _members(base.n, [a for a, _ in extents])
        sat_members = _members(base.n, [k for _, k in extents])
    else:
        members = sat_members = _members(base.n, extents)
    return ConstructedSpace(base, kind, tuple(extents), label, members, sat_members, base_cs)


def lower_powerspace(x, limits: Limits = DEFAULT_LIMITS) -> ConstructedSpace:
    """A(X): closed sets with the lower Vietoris topology."""
    base, base_cs, inner = _base_of(x)
    extents = enumerate_lower_sets(base, limits.max_construction_points)
    return _finish(base, base_cs, f"A({inner})", KIND_LOWER, extents, limits)


def upper_powerspace(x, limits: Limits = DEFAULT_LIMITS) -> ConstructedSpace:
    """K(X): saturated sets with the upper Vietoris topology."""
    base, base_cs, inner = _base_of(x)
    extents = enumerate_upper_sets(base.up, limits.max_construction_points)
    return _finish(base, base_cs, f"K({inner})", KIND_UPPER, extents, limits)


def convex_powerspace(x, limits: Limits = DEFAULT_LIMITS) -> ConstructedSpace:
    """L(X): lens pairs <A, K> with Cl(A&K) = A and up(A&K) = K.

    A closed A and a saturated K form a lens exactly when max(A) lies in
    K and min(K) lies in A, so each candidate pair costs two ANDs against
    extremal points computed once per set.  If max(A) lies in K, it lies
    in A&K, and Cl(A&K), which is inside the closed A, holds down(max(A)),
    which on a finite space is all of A.  Conversely, if Cl(A&K) = A, a
    maximal point of A lies below some point of A&K, inside A, so it is
    that point and lies in K.  The argument for K is dual.  Both lists
    come sorted, so the pairs come sorted by (A, K).
    """
    base, base_cs, inner = _base_of(x)
    closed = enumerate_lower_sets(base, limits.max_construction_points)
    saturated = enumerate_upper_sets(base.up, limits.max_construction_points)
    bottoms = list(zip(saturated, map(base.minimal_points, saturated)))
    extents = [
        (a, k)
        for a, top in zip(closed, map(base.maximal_points, closed))
        for k, bottom in bottoms
        if not (top & ~k or bottom & ~a)
    ]
    return _finish(base, base_cs, f"L({inner})", KIND_CONVEX, extents, limits)


def open_lattice(x, limits: Limits = DEFAULT_LIMITS) -> ConstructedSpace:
    """O(X): the opens of X ordered by inclusion, upper-set topology."""
    base, base_cs, inner = _base_of(x)
    extents = list(base.opens(limits))
    return _finish(base, base_cs, f"O({inner})", KIND_OPENS, extents, limits)


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


def _kept_on_powers(compute):
    """Turn compute(pw) into a function of a base space or a Powers.
    Over a Powers the result is computed once and kept in pw.pairs, so
    every later check on the same tower reuses it."""

    @wraps(compute)
    def kept(x, limits: Limits = DEFAULT_LIMITS):
        if not isinstance(x, Powers):
            return compute(Powers(x, limits))
        got = x.pairs.get(compute.__name__)
        if got is None:
            got = x.pairs[compute.__name__] = compute(x)
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
    verdict = check_continuous(f)
    if not verdict.holds:
        raise NotContinuous(f"cannot lift a discontinuous map (witness {verdict.witness.label()})")
    if kind == KIND_OPENS:
        table = [cod_ps.point_of(f.preimage_mask(v)) for v in dom_ps.extents]
    else:
        hull = f.codomain.down if kind == KIND_LOWER else f.codomain.up
        image_hulls = [hull[v] for v in f.table]
        table = [cod_ps.point_of(union_of(image_hulls, ext)) for ext in dom_ps.extents]
    return SpaceMap(dom_ps.space, cod_ps.space, tuple(table))


def monad_unit(ps: ConstructedSpace) -> SpaceMap:
    """X -> T(X) for ps = T(X); a point goes to its closure (A) or
    saturation (K)."""
    if ps.kind not in (KIND_LOWER, KIND_UPPER):
        raise ValueError(f"no monad unit into {ps.label}")
    hull = ps.base.down if ps.kind == KIND_LOWER else ps.base.up
    return SpaceMap(ps.base, ps.space, tuple(map(ps.point_of, hull)))


def monad_mult(pps: ConstructedSpace) -> SpaceMap:
    """T(T(X)) -> T(X) by union of extents, for pps = T(T(X)) built over
    the construction T(X)."""
    ps = pps.base_construction
    if pps.kind not in (KIND_LOWER, KIND_UPPER) or ps is None or ps.kind != pps.kind:
        raise ValueError(f"no monad multiplication on {pps.label}")
    table = tuple(ps.point_of(union_of(ps.extents, fam)) for fam in pps.extents)
    return SpaceMap(pps.space, ps.space, table)


def structure_map(t: ConstructedSpace) -> SpaceMap:
    """T(O(X)) -> O(X) for t = T(O(X)) built over the construction O(X):
    a closed family of opens goes to its union (A), a saturated family to
    its intersection (K)."""
    lattice = t.base_construction
    if t.kind not in (KIND_LOWER, KIND_UPPER) or lattice is None or lattice.kind != KIND_OPENS:
        raise ValueError(f"no structure map on {t.label}")
    if t.kind == KIND_LOWER:
        table = (union_of(lattice.extents, fam) for fam in t.extents)
    else:
        table = (intersection_of(lattice.extents, fam, lattice.base.full_mask) for fam in t.extents)
    return SpaceMap(t.space, lattice.space, tuple(map(lattice.point_of, table)))


# ---------------------------------------------------------------------------
# law checks used by the suites; their caps are those of the tower


def monad_laws(kind: str, x, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Unit and associativity laws of the chosen monad on x.

    The associativity square quantifies over T(T(T(x))).  Only its points
    are enumerated (lower or upper sets of T(T(x))), never its topology,
    which keeps the triple level inside the cap.
    """
    pw = _powers(x, limits)
    t1, t2 = getattr(pw, kind), getattr(pw, kind * 2)
    eta, mult = monad_unit(t1), monad_mult(t2)
    eta_t = monad_unit(t2)
    t_eta = functor_map(eta, t1, t2)
    checks = 0
    for i in range(t1.space.n):
        checks += 2
        if mult.table[eta_t.table[i]] != i:
            return Verdict(False, witness={"law": "mult after unit", "point": t1.space.names[i]})
        if mult.table[t_eta.table[i]] != i:
            return Verdict(False, witness={"law": "mult after lifted unit", "point": t1.space.names[i]})
    if not check_continuous(eta).holds or not check_continuous(mult).holds:
        return Verdict(False, witness={"law": "continuity of unit or multiplication"})
    bad, families = _first_family_apart(t2, mult, pw.limits)
    if bad is not None:
        return Verdict(False, witness={"law": "associativity", "family": set_label(t2.space.names, bad)})
    checks += families
    return Verdict(True, info={"checker": "monad_laws", "kind": kind, "checks": checks, "triple_points": families})


def monad_preimage_identities(kind: str, x, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Subbasic preimages of the unit and multiplication.

    For A: unit pulls diamond(U) back to U and mult pulls it back to
    diamond(diamond(U)); dually for K with box.
    """
    pw = _powers(x, limits)
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


def algebra_laws(kind: str, x, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Eilenberg-Moore laws for union on A(O(X)) or intersection on K(O(X))."""
    pw = _powers(x, limits)
    lattice, t1 = pw.O, getattr(pw, kind + KIND_OPENS)
    struct, eta = structure_map(t1), monad_unit(t1)
    for i in range(lattice.space.n):
        if struct.table[eta.table[i]] != i:
            return Verdict(False, witness={"law": "structure after unit", "open": lattice.space.names[i]})
    if not check_continuous(struct).holds:
        return Verdict(False, witness={"law": "continuity of the structure map"})
    bad, families = _first_family_apart(t1, struct, pw.limits)
    if bad is not None:
        return Verdict(False, witness={"law": "structure after mult", "family": set_label(t1.space.names, bad)})
    return Verdict(True, info={"checker": "algebra_laws", "kind": kind, "checks": families})


def _first_family_apart(t: ConstructedSpace, struct: SpaceMap, limits: Limits):
    """The square struct o mult = struct o T(struct) over T(t), T the kind
    of t, whose points (lower sets of t for A, upper sets for K) are
    enumerated, never built.  A family goes one way to struct of the union
    of its extents, the other to struct of the closure (A) or saturation
    (K) of its image, the image living in struct's codomain.  Returns the
    first family where the two differ, or None, and the number of
    families.  They are counted first, so a family count over the cap
    raises before any is enumerated."""
    count = count_upper_sets(t.space)  # lower sets, by complement, for A
    if count > limits.max_construction_points:
        raise PowerspaceTooLarge(f"{t.kind}({t.label}) would have {count} points")
    lower = t.kind == KIND_LOWER
    families = enumerate_lower_sets(t.space) if lower else enumerate_upper_sets(t.space.up)
    hull = struct.codomain.down if lower else struct.codomain.up
    image_hulls = [hull[v] for v in struct.table]
    for fam in families:
        left = struct.table[t.point_of(union_of(t.extents, fam))]
        right = struct.table[t.point_of(union_of(image_hulls, fam))]
        if left != right:
            return fam, len(families)
    return None, len(families)


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


def to_dot(cs: ConstructedSpace) -> str:
    """Hasse diagram of the specialization order, extents as labels."""
    lines = [
        "digraph {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for i, name in enumerate(cs.space.names):
        safe = name.replace('"', '\\"')
        lines.append(f'  n{i} [label="{safe}"];')
    for i, j in cs.space.covers():
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
