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
rebuild identical spaces.

The empty lens <{}, {}> qualifies under the pair conditions and is kept;
parts of the literature insist on non-empty lenses, this library does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .config import DEFAULT_LIMITS, Limits
from .core import (
    FiniteSpace,
    PtSet,
    SpaceMap,
    Verdict,
    bits,
    check_continuous,
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
            labels = tuple(f"<{set_label(names, a)},{set_label(names, k)}>" for a, k in self.extents)
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
        audits, which close it and compare the result with the order."""
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

    def extent_of(self, i: int):
        return self.extents[i]

    def __repr__(self):
        return f"ConstructedSpace({self.label}, points={self.space.n})"


def _base_of(x) -> tuple[FiniteSpace, "ConstructedSpace | None", str]:
    if isinstance(x, ConstructedSpace):
        return x.space, x, x.label
    return x, None, "X"


def _members(n: int, extents) -> tuple[int, ...]:
    members = [0] * n
    for i, e in enumerate(extents):
        for p in bits(e):
            members[p] |= 1 << i
    return tuple(members)


def _finish(base, base_cs, label, kind, extents, limits) -> ConstructedSpace:
    if len(extents) > limits.max_construction_points:
        raise PowerspaceTooLarge(f"{label} would have {len(extents)} points")
    if kind == KIND_CONVEX:
        members = _members(base.n, (a for a, _ in extents))
        sat_members = _members(base.n, (k for _, k in extents))
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
    """L(X): lens pairs <A, K> with Cl(A&K) = A and up(A&K) = K."""
    base, base_cs, inner = _base_of(x)
    closed = enumerate_lower_sets(base, limits.max_construction_points)
    saturated = enumerate_upper_sets(base.up, limits.max_construction_points)
    extents = []
    for a in closed:
        for k in saturated:
            core = a & k
            if base.closure_mask(core) == a and base.saturation_mask(core) == k:
                extents.append((a, k))
    extents.sort()
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


# ---------------------------------------------------------------------------
# the functorial actions


def functor_map(
    kind: str,
    f: SpaceMap,
    dom_ps: ConstructedSpace | None = None,
    cod_ps: ConstructedSpace | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> SpaceMap:
    """Lift a continuous f: X -> Y to the chosen construction.

    A(f) takes a closed set to the closure of its image, K(f) to the
    saturation of its image.  O is contravariant: O(f) sends an open of Y
    to its preimage, so the returned map runs O(Y) -> O(X).
    """
    verdict = check_continuous(f)
    if not verdict.holds:
        raise NotContinuous(f"cannot lift a discontinuous map (witness {verdict.witness.label()})")
    if kind in (KIND_LOWER, KIND_UPPER):
        build = BUILDERS[kind]
        dom_ps = dom_ps or build(f.domain, limits)
        cod_ps = cod_ps or build(f.codomain, limits)
        hull = f.codomain.down if kind == KIND_LOWER else f.codomain.up
        table = []
        for ext in dom_ps.extents:
            img = 0
            for p in bits(ext):
                img |= hull[f.table[p]]
            table.append(cod_ps.point_of(img))
        return SpaceMap(dom_ps.space, cod_ps.space, tuple(table))
    if kind == KIND_OPENS:
        dom_ps = dom_ps or open_lattice(f.codomain, limits)
        cod_ps = cod_ps or open_lattice(f.domain, limits)
        table = [cod_ps.point_of(f.preimage_mask(v)) for v in dom_ps.extents]
        return SpaceMap(dom_ps.space, cod_ps.space, tuple(table))
    raise ValueError(f"no functorial action for kind {kind!r}")


def monad_unit(kind: str, x, ps: ConstructedSpace | None = None, limits: Limits = DEFAULT_LIMITS) -> SpaceMap:
    """X -> T(X); a point goes to its closure (A) or saturation (K)."""
    base, _, _ = _base_of(x)
    if kind == KIND_LOWER:
        ps = ps or lower_powerspace(base, limits)
        table = tuple(ps.point_of(base.down[p]) for p in range(base.n))
    elif kind == KIND_UPPER:
        ps = ps or upper_powerspace(base, limits)
        table = tuple(ps.point_of(base.up[p]) for p in range(base.n))
    else:
        raise ValueError(f"no monad unit for kind {kind!r}")
    return SpaceMap(base, ps.space, table)


def monad_mult(
    kind: str,
    x,
    ps: ConstructedSpace | None = None,
    pps: ConstructedSpace | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> SpaceMap:
    """T(T(X)) -> T(X) by union of extents."""
    base, _, _ = _base_of(x)
    if kind not in (KIND_LOWER, KIND_UPPER):
        raise ValueError(f"no monad multiplication for kind {kind!r}")
    build = BUILDERS[kind]
    ps = ps or build(base, limits)
    pps = pps or build(ps, limits)
    table = tuple(ps.point_of(union_of(ps.extents, fam)) for fam in pps.extents)
    return SpaceMap(pps.space, ps.space, table)


def structure_map_union(
    x,
    lattice: ConstructedSpace | None = None,
    ao: ConstructedSpace | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> SpaceMap:
    """A(O(X)) -> O(X), a closed family of opens goes to its union."""
    base, _, _ = _base_of(x)
    lattice = lattice or open_lattice(base, limits)
    ao = ao or lower_powerspace(lattice, limits)
    table = tuple(lattice.point_of(union_of(lattice.extents, fam)) for fam in ao.extents)
    return SpaceMap(ao.space, lattice.space, table)


def structure_map_intersection(
    x,
    lattice: ConstructedSpace | None = None,
    ko: ConstructedSpace | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> SpaceMap:
    """K(O(X)) -> O(X), a saturated family of opens goes to its intersection."""
    base, _, _ = _base_of(x)
    lattice = lattice or open_lattice(base, limits)
    ko = ko or upper_powerspace(lattice, limits)
    table = tuple(lattice.point_of(intersection_of(lattice.extents, fam, base.full_mask)) for fam in ko.extents)
    return SpaceMap(ko.space, lattice.space, table)


# ---------------------------------------------------------------------------
# law checks used by the suites


def monad_laws(kind: str, x, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Unit and associativity laws of the chosen monad on x.

    The associativity square quantifies over T(T(T(x))).  Only its points
    are enumerated (lower or upper sets of T(T(x))), never its topology,
    which keeps the triple level inside the cap.
    """
    base, _, _ = _base_of(x)
    build = BUILDERS[kind]
    t1 = build(base, limits)
    t2 = build(t1, limits)
    eta = monad_unit(kind, base, ps=t1, limits=limits)
    mult = monad_mult(kind, base, ps=t1, pps=t2, limits=limits)
    eta_t = monad_unit(kind, t1, ps=t2, limits=limits)
    t_eta = functor_map(kind, eta, dom_ps=t1, cod_ps=t2, limits=limits)
    checks = 0
    for i in range(t1.space.n):
        checks += 2
        if mult.table[eta_t.table[i]] != i:
            return Verdict(False, witness={"law": "mult after unit", "point": t1.space.names[i]})
        if mult.table[t_eta.table[i]] != i:
            return Verdict(False, witness={"law": "mult after lifted unit", "point": t1.space.names[i]})
    if not check_continuous(eta).holds or not check_continuous(mult).holds:
        return Verdict(False, witness={"law": "continuity of unit or multiplication"})
    lower = kind == KIND_LOWER
    t2space = t2.space
    triple = (
        enumerate_lower_sets(t2space, limits.max_construction_points)
        if lower
        else enumerate_upper_sets(t2space.up, limits.max_construction_points)
    )
    # T(mult) closes or saturates the image inside T(X), whose points index t1
    hull = t1.space.down if lower else t1.space.up
    for fam in triple:
        union = 0
        img = 0
        for j in bits(fam):
            union |= t2.extents[j]
            img |= hull[mult.table[j]]
        left = mult.table[t2.point_of(union)]
        right = mult.table[t2.point_of(img)]
        checks += 1
        if left != right:
            return Verdict(False, witness={"law": "associativity", "family": set_label(t2space.names, fam)})
    return Verdict(True, info={"checker": "monad_laws", "kind": kind, "checks": checks, "triple_points": len(triple)})


def monad_preimage_identities(kind: str, x, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Subbasic preimages of the unit and multiplication.

    For A: unit pulls diamond(U) back to U and mult pulls it back to
    diamond(diamond(U)); dually for K with box.
    """
    base, _, _ = _base_of(x)
    build = BUILDERS[kind]
    modal = ConstructedSpace.diamond if kind == KIND_LOWER else ConstructedSpace.box
    t1 = build(base, limits)
    t2 = build(t1, limits)
    eta = monad_unit(kind, base, ps=t1, limits=limits)
    mult = monad_mult(kind, base, ps=t1, pps=t2, limits=limits)
    for u in base.opens(limits):
        m1 = modal(t1, u)
        if eta.preimage_mask(m1) != u:
            return Verdict(False, witness={"identity": "unit", "open": set_label(base.names, u)})
        if mult.preimage_mask(m1) != modal(t2, m1):
            return Verdict(False, witness={"identity": "mult", "open": set_label(base.names, u)})
    return Verdict(True, info={"checker": "monad_preimage_identities", "kind": kind, "opens": len(base.opens(limits))})


def algebra_laws(kind: str, x, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Eilenberg-Moore laws for union on A(O(X)) or intersection on K(O(X))."""
    base, _, _ = _base_of(x)
    lattice = open_lattice(base, limits)
    build = BUILDERS[kind]
    t1 = build(lattice, limits)
    if kind == KIND_LOWER:
        struct = structure_map_union(base, lattice=lattice, ao=t1, limits=limits)
    elif kind == KIND_UPPER:
        struct = structure_map_intersection(base, lattice=lattice, ko=t1, limits=limits)
    else:
        raise ValueError(f"no algebra for kind {kind!r}")
    eta = monad_unit(kind, lattice, ps=t1, limits=limits)
    for i in range(lattice.space.n):
        if struct.table[eta.table[i]] != i:
            return Verdict(False, witness={"law": "structure after unit", "open": lattice.space.names[i]})
    if not check_continuous(struct).holds:
        return Verdict(False, witness={"law": "continuity of the structure map"})
    lower = kind == KIND_LOWER
    t1space = t1.space
    doubled = (
        enumerate_lower_sets(t1space, limits.max_construction_points)
        if lower
        else enumerate_upper_sets(t1space.up, limits.max_construction_points)
    )
    # T(struct) lands in O(X), whose points index the lattice
    hull = lattice.space.down if lower else lattice.space.up
    checks = 0
    for fam in doubled:
        union = 0
        img = 0
        for j in bits(fam):
            union |= t1.extents[j]
            img |= hull[struct.table[j]]
        left = struct.table[t1.point_of(union)]
        right = struct.table[t1.point_of(img)]
        checks += 1
        if left != right:
            return Verdict(False, witness={"law": "structure after mult", "family": set_label(t1space.names, fam)})
    return Verdict(True, info={"checker": "algebra_laws", "kind": kind, "checks": checks})


# ---------------------------------------------------------------------------
# serialization


def construction_to_json(cs: ConstructedSpace) -> dict:
    def ext_json(e):
        if isinstance(e, tuple):
            return {
                "closed": list(PtSet(cs.base, e[0]).points()),
                "saturated": list(PtSet(cs.base, e[1]).points()),
            }
        return list(PtSet(cs.base, e).points())

    return {
        "label": cs.label,
        "kind": cs.kind,
        "base_points": list(cs.base.names),
        "points": [
            {"name": cs.space.names[i], "extent": ext_json(e)} for i, e in enumerate(cs.extents)
        ],
        "order": [[cs.space.names[i], cs.space.names[j]] for i, j in cs.space.covers()],
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
