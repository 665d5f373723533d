"""Convergent approximation relations and the Wilker decomposition.

The refinement relation lives on the full open family of a space.  On a
finite space an infinite refining sequence must repeat, so the limit
axiom is read over refinement cycles: with the subset axiom in force the
cycles are exactly the self-refining opens, and each must be the minimal
neighborhood of a single point.  This finitization is a deliberate
reading of the infinite axiom; whether it is the only faithful one on
finite spaces is not claimed.

The decomposition walks the two-tree covering construction levelwise.
A state is (K, F, G): K a point mask, F and G the opens alive on either
side as masks over indices into the sorted open family.  The relation is
read as refiners[i], the opens refining opens[i], and the self-refining
opens; a pair off the open family never meets a walk from opens.  A level
covers K greedily, scanning the refiners of F and of G by index, and
splits the chosen opens back by side.  The transition is deterministic
and the states are finite, so the walk is driven to a cycle; the opens
that refine themselves and stay alive and chosen around the whole cycle
are the values of the infinite tree paths, all of which stabilize.

Each relation keeps one memo from state to split (K1, K2), for every
cap, and it is exact: from any state of a walk, prefix or cycle, the walk
reaches the same cycle, and the stable opens, an intersection over that
cycle, do not depend on where it is entered.  So every state walked is
stored with the walk's split, and a walk meeting a stored state stops
there.  K is in the key because the cover depends on it; the key packs
the state into one int, (K << 2m) | (F << m) | G for m opens, a quarter
of the memory of a tuple key.  The indices are the relation's own, so
the memo dies with the relation.

The suite's wilker_splits enters each walk at level 1: the level-0
candidates, the refiners of U1 and of U2, are listed once per cover
pair, and each K is covered from them before the memo is asked.  So
the suite's memo holds the states walked from level 1 on; wilker_split,
for one triple, walks from the level-0 state (K, {U1}, {U2}), whose
split is its successor's.

The walk is symmetric in its two sides: from (K, G, F) it walks the
levels of (K, F, G) with the sides swapped, to the split (K2, K1).  So
wilker_splits decides each unordered cover pair once, at U1 <= U2 by
open index; the triple (U2, U1, K) fails exactly when (U1, U2, K) does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, product

from .config import DEFAULT_LIMITS, Limits
from .core import FiniteSpace, PtSet, Verdict, bits, set_label, union_of
from .errors import EmptySpace, NoUniquePoint, PreconditionViolated


@dataclass(frozen=True)
class ApproxRelation:
    """A refinement relation on the opens of a space, as mask pairs."""

    space: FiniteSpace
    pairs: frozenset[tuple[int, int]]

    def refines(self, u: int, v: int) -> bool:
        return (u, v) in self.pairs

    @cached_property
    def _verdict(self) -> Verdict:
        return _check_axioms(self)

    @cached_property
    def _walk_tables(self) -> _OpenWalk:
        """The relation on the space's one enumeration of opens, which
        serves every cap; _open_walk decides the cap before reading it."""
        opens = self.space._opens
        index = {u: i for i, u in enumerate(opens)}
        refiners = [0] * len(opens)
        self_refining = 0
        for u, v in self.pairs:
            if u in index and v in index:
                refiners[index[v]] |= 1 << index[u]
                if u == v:
                    self_refining |= 1 << index[u]
        return _OpenWalk(self.space.names, opens, index, refiners, self_refining, {})


def canonical_approx_relation(x: FiniteSpace, limits: Limits = DEFAULT_LIMITS) -> ApproxRelation:
    """U refines V exactly when U is a minimal point neighborhood inside V.

    Minimal neighborhoods refine themselves, so every refinement cycle is
    the neighborhood filter of its point and the limit axiom is immediate;
    validate_approx_relation still checks it rather than assuming it.
    """
    if x.n == 0:
        raise EmptySpace("an approximation relation needs at least one point")
    opens = x.opens(limits)
    minimal = {x.up[p] for p in range(x.n)}
    pairs = frozenset((m, v) for m in minimal for v in opens if not (m & ~v))
    return ApproxRelation(x, pairs)


def validate_approx_relation(r: ApproxRelation, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """The four axioms; the limit axiom in its cycle form.

    The relation is frozen, so its verdict is computed once and kept on
    it for every cap, which is decided on every call; wilker_decompose
    asks for it on every call.
    """
    r.space.refuse_over_cap(limits)
    return r._verdict


def _check_axioms(r: ApproxRelation) -> Verdict:
    """The axioms on the walk's index tables, one test each, first
    failure reported: (0) every pair joins two opens, the one fact the
    tables cannot hold; (1) a refiner lies inside what it refines; (2) an
    open refining V refines every open above V; (3) the refiners of an
    open cover it; (4) every self-refining open is some up(p), which with
    (1) in force is the limit axiom on the cycles (module docstring)."""
    w = r._walk_tables
    opens, refiners = w.opens, w.refiners
    lbl = lambda m: set_label(w.names, m)
    fail = lambda axiom, **witness: Verdict(False, witness={"axiom": axiom, **witness})
    off = sorted((u, v) for u, v in r.pairs if u not in w.index or v not in w.index)
    if off:
        return fail(0, pair=tuple(map(lbl, off[0])), failure="relation off the open family")
    for v, sel in zip(opens, refiners):
        for i in bits(sel):
            if opens[i] & ~v:
                return fail(1, pair=(lbl(opens[i]), lbl(v)))
    for (v, sel), (u, sel_u) in product(zip(opens, refiners), repeat=2):
        if not v & ~u and (lost := sel & ~sel_u):
            return fail(2, instance=(lbl(opens[next(bits(lost))]), lbl(v), lbl(u)))
    for v, sel in zip(opens, refiners):
        if uncovered := v & ~union_of(opens, sel):
            return fail(3, point=w.names[next(bits(uncovered))], open=lbl(v))
    minimal = set(r.space.up)
    for i in bits(w.self_refining):
        if opens[i] not in minimal:
            return fail(4, cycle=(lbl(opens[i]),), basis_points=())
    return Verdict(True, info={"checker": "validate_approx_relation", "pairs": len(r.pairs), "opens": len(opens)})


@dataclass(frozen=True)
class PathDescriptor:
    """An ultimately periodic branch: prefix then cycle, repeated forever."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("the cycle part must be non-empty")

    def indices(self):
        yield from self.prefix
        while True:
            yield from self.cycle


@dataclass(frozen=True)
class ApproxScheme:
    """A finite refining labeling of a prefix-closed tree of sequences."""

    relation: ApproxRelation
    nodes: tuple[tuple[int, ...], ...]
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != len(self.nodes):
            raise PreconditionViolated("one open per tree node")
        assign = self._assign
        if () not in assign:
            raise PreconditionViolated("the tree must contain the root")
        for s in self.nodes:
            if s and s[:-1] not in assign:
                raise PreconditionViolated("the tree must be prefix closed")
        for s in self.nodes:
            for t in self.nodes:
                if len(s) < len(t) and t[: len(s)] == s:
                    if not self.relation.refines(assign[t], assign[s]):
                        raise PreconditionViolated(
                            f"assignment at {t} does not refine the one at {s}"
                        )

    @cached_property
    def _assign(self) -> dict:
        return dict(zip(self.nodes, self.assignment))

    def open_at(self, node: tuple[int, ...]) -> int | None:
        return self._assign.get(node)

    def to_json(self) -> dict:
        return {
            "tree": [list(node) for node in self.nodes],
            "opens": [set_label(self.relation.space.names, m) for m in self.assignment],
        }


def scheme_limit(s: ApproxScheme, path: PathDescriptor) -> int:
    """The point approximated along an ultimately periodic branch.

    The opens met inside the finite tree refine one another, so any
    infinite continuation is constant from the deepest visited node on;
    the walk demands that its last open refines itself and returns the
    point whose minimal neighborhood it is.
    """
    x = s.relation.space
    node: tuple[int, ...] = ()
    last = s.open_at(node)
    if last is None:
        raise PreconditionViolated("the tree has no root assignment")
    for i in path.indices():
        node = node + (i,)
        nxt = s.open_at(node)
        if nxt is None:
            break
        last = nxt
    if not s.relation.refines(last, last):
        raise PreconditionViolated("the opens along the path do not stabilize")
    for p in bits(last):
        if x.up[p] == last:
            return p
    raise NoUniquePoint(f"{set_label(x.names, last)} is the minimal neighborhood of no point")


# ---------------------------------------------------------------------------
# the two-tree decomposition


@dataclass(frozen=True)
class _OpenWalk:
    """The relation on open-family indices, with the memo of its walks."""

    names: tuple[str, ...]
    opens: tuple[int, ...]
    index: dict[int, int]
    refiners: list[int]
    self_refining: int
    memo: dict[int, tuple[int, int]]


def _open_walk(r: ApproxRelation, limits: Limits) -> _OpenWalk:
    """The relation's tables, kept on it like its verdict; the cap is
    decided on every call, before they are read."""
    r.space.refuse_over_cap(limits)
    return r._walk_tables


def _cover(w: _OpenWalk, k: int, candidates) -> int:
    """The greedy cover of K from the (index, open) candidates, in their
    order, as an index mask: it keeps an open exactly when it covers
    something still uncovered."""
    chosen, remaining = 0, k
    for i, v in candidates:
        if not remaining:
            break
        if v & remaining:
            chosen |= 1 << i
            remaining &= ~v
    if remaining:
        raise PreconditionViolated(
            "the refinement relation cannot cover the compact set "
            f"(missing {set_label(w.names, remaining)})"
        )
    return chosen


def _step(w: _OpenWalk, k: int, f: int, g: int) -> tuple[int, int, int]:
    """One level: (f', g', chosen), covering K from the refiners of F and
    of G by index."""
    fr = union_of(w.refiners, f)
    gr = union_of(w.refiners, g)
    chosen = _cover(w, k, ((i, w.opens[i]) for i in bits(fr | gr)))
    return chosen & fr, chosen & gr, chosen


def _walk(w: _OpenWalk, k: int, f: int, g: int, memo: dict | None = None):
    """Walk the state (k, f, g) to its cycle: the levels as (f, g,
    chosen) index masks, the cycle's first level, the stable index masks
    and the split (K1, K2).  Given a memo, the walk stops at the first
    state it holds, with the cycle start and stable masks None, and
    stores every state walked with the split."""
    levels = []
    seen: dict[tuple[int, int], int] = {}
    split = None
    m = len(w.opens)
    while (f, g) not in seen:
        if memo is not None:
            split = memo.get((k << 2 * m) | (f << m) | g)
            if split is not None:
                break
        seen[(f, g)] = len(levels)
        nf, ng, chosen = _step(w, k, f, g)
        levels.append((f, g, chosen))
        f, g = nf, ng
    start = stable_f = stable_g = None
    if split is None:
        start = seen[(f, g)]
        stable_f = stable_g = w.self_refining
        for lf, lg, chosen in levels[start:]:
            stable_f &= lf & chosen
            stable_g &= lg & chosen
        split = union_of(w.opens, stable_f), union_of(w.opens, stable_g)
    if memo is not None:
        for lf, lg, _ in levels:
            memo[(k << 2 * m) | (lf << m) | lg] = split
    return levels, start, stable_f, stable_g, split


def require_valid_relation(r: ApproxRelation, limits: Limits = DEFAULT_LIMITS) -> None:
    """Raise PreconditionViolated when r fails its axioms."""
    if not validate_approx_relation(r, limits).holds:
        raise PreconditionViolated("the approximation relation fails its axioms")


def wilker_split(r: ApproxRelation, k: int, u1: int, u2: int, limits: Limits = DEFAULT_LIMITS) -> tuple[int, int]:
    """wilker_decompose on masks, with no input checks: r has passed
    require_valid_relation, U1 and U2 are opens of r's space and K is a
    saturated set inside U1 | U2.  Returns (K1, K2) from the relation's
    memo and checks the same postconditions."""
    w = _open_walk(r, limits)
    *_, (k1, k2) = _walk(w, k, 1 << w.index[u1], 1 << w.index[u2], w.memo)
    if k1 & ~u1 or k2 & ~u2 or k & ~(k1 | k2):
        raise AssertionError("decomposition postconditions violated")
    return k1, k2


def wilker_splits(r: ApproxRelation, limits: Limits = DEFAULT_LIMITS):
    """(U1, U2, K, split) for every triple of opens in product order with
    K inside U1 | U2 and U1 at or before U2 in the open family, on masks
    and with no input checks, as wilker_split; split is (K1, K2), or None
    when it misses the postconditions.  The cap is decided once, before
    the first triple, and each walk entered at level 1 (module
    docstring).

    The triples left out are the mirrors (U2, U1, K), and each has the
    mirrored split (K2, K1).  _step covers K from one candidate list,
    the refiners of F and of G in index order, and splits the chosen
    opens back by side; so from (K, G, F) every level is the level of
    (K, F, G) with F and G swapped, the same opens chosen, and the cycle
    is entered at the same level.  The stable masks, an intersection
    over that cycle, swap with the sides, and so does the split.  The
    postconditions, K1 inside U1, K2 inside U2 and K inside K1 | K2,
    read the same after the swap, and so does a saturation test of the
    split.  So a mirror fails exactly when its triple does, and comes
    later in product order: the first failing triple, and every verdict
    read off the first one, is the same as over all ordered triples."""
    w = _open_walk(r, limits)
    opens, refiners, memo = w.opens, w.refiners, w.memo
    m = len(opens)
    indexed = tuple(enumerate(opens))
    for (i1, u1), (i2, u2) in combinations_with_replacement(indexed, 2):
        fr, gr = refiners[i1], refiners[i2]
        candidates = [indexed[i] for i in bits(fr | gr)]
        for k in opens:
            if k & ~(u1 | u2):
                continue
            chosen = _cover(w, k, candidates)
            f, g = chosen & fr, chosen & gr
            split = memo.get((k << 2 * m) | (f << m) | g)
            if split is None:
                *_, split = _walk(w, k, f, g, memo)
            k1, k2 = split
            yield u1, u2, k, None if k1 & ~u1 or k2 & ~u2 or k & ~(k1 | k2) else split


def wilker_decompose(
    x: FiniteSpace,
    r: ApproxRelation,
    k: PtSet,
    u1: PtSet,
    u2: PtSet,
    limits: Limits = DEFAULT_LIMITS,
) -> tuple[PtSet, PtSet]:
    """Split a compact set under a two-open cover along the refinement
    trees.  Returns saturated K1 inside U1 and K2 inside U2 covering K."""
    if r.space != x:
        raise PreconditionViolated("the relation must live on the given space")
    for s in (k, u1, u2):
        if s.space != x:
            raise PreconditionViolated("all sets must live in the given space")
    if not x.is_open(u1.mask) or not x.is_open(u2.mask):
        raise PreconditionViolated("U1 and U2 must be open")
    if x.saturation_mask(k.mask) != k.mask:
        raise PreconditionViolated("K must be saturated")
    if k.mask & ~(u1.mask | u2.mask):
        raise PreconditionViolated("K must be covered by U1 and U2")
    require_valid_relation(r, limits)
    k1, k2 = wilker_split(r, k.mask, u1.mask, u2.mask, limits)
    return PtSet(x, k1), PtSet(x, k2)


def wilker_decomposition_trace(
    x: FiniteSpace,
    r: ApproxRelation,
    k: PtSet,
    u1: PtSet,
    u2: PtSet,
    limits: Limits = DEFAULT_LIMITS,
) -> dict:
    """Same walk as wilker_decompose, with no memo, exported level by
    level for audit."""
    if r.space != x:
        raise PreconditionViolated("the relation must live on the given space")
    w = _open_walk(r, limits)
    if u1.mask not in w.index or u2.mask not in w.index:
        raise PreconditionViolated("U1 and U2 must be open")
    levels, start, stable_f, stable_g, (k1, k2) = _walk(w, k.mask, 1 << w.index[u1.mask], 1 << w.index[u2.mask])
    lbl = lambda m: set_label(x.names, m)
    labels = lambda sel: [lbl(w.opens[i]) for i in bits(sel)]
    return {
        "levels": [{"f": sorted(labels(f)), "g": sorted(labels(g)), "chosen": labels(chosen)} for f, g, chosen in levels],
        "cycle_start": start,
        "stable_f": labels(stable_f),
        "stable_g": labels(stable_g),
        "k1": lbl(k1),
        "k2": lbl(k2),
    }
