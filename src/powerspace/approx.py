"""Convergent approximation relations and the Wilker decomposition.

The refinement relation lives on the full open family of a space.  On a
finite space an infinite refining sequence must repeat, so the limit
axiom is read over refinement cycles: with the subset axiom in force the
cycles are exactly the self-refining opens, and each must be the minimal
neighborhood of a single point.  This finitization is a deliberate
reading of the infinite axiom; whether it is the only faithful one on
finite spaces is not claimed.

The decomposition walks the two-tree covering construction levelwise.
States are the sets of opens alive at a level, the level transition is
deterministic, and the state space is finite, so the walk is driven to a
cycle; the opens that survive the whole cycle are the values of the
infinite tree paths, all of which stabilize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .config import DEFAULT_LIMITS, Limits
from .core import FiniteSpace, PtSet, Verdict, bits, set_label
from .errors import EmptySpace, NoUniquePoint, PreconditionViolated


@dataclass(frozen=True)
class ApproxRelation:
    """A refinement relation on the opens of a space, as mask pairs."""

    space: FiniteSpace
    pairs: frozenset[tuple[int, int]]

    def refines(self, u: int, v: int) -> bool:
        return (u, v) in self.pairs

    @cached_property
    def _by_coarse(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for u, v in sorted(self.pairs):
            out.setdefault(v, []).append(u)
        return out

    def refiners_of(self, v: int) -> list[int]:
        return self._by_coarse.get(v, [])

    @cached_property
    def _verdicts(self) -> dict[Limits, Verdict]:
        return {}


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

    The relation is frozen, so its verdict is computed once per Limits
    and kept on it; wilker_decompose asks for it on every call.
    """
    got = r._verdicts.get(limits)
    if got is None:
        got = r._verdicts[limits] = _check_axioms(r, limits)
    return got


def _check_axioms(r: ApproxRelation, limits: Limits) -> Verdict:
    x = r.space
    opens = x.opens(limits)
    open_set = set(opens)
    for u, v in sorted(r.pairs):
        if u not in open_set or v not in open_set:
            return Verdict(False, witness={"axiom": 0, "pair": (set_label(x.names, u), set_label(x.names, v)),
                                           "failure": "relation off the open family"})
        if u & ~v:
            return Verdict(False, witness={"axiom": 1, "pair": (set_label(x.names, u), set_label(x.names, v))})
        for w in opens:
            if not (v & ~w) and (u, w) not in r.pairs:
                return Verdict(False, witness={"axiom": 2,
                                               "instance": tuple(set_label(x.names, m) for m in (u, v, w))})
    for u in opens:
        for p in bits(u):
            if not any((o >> p) & 1 and (o, u) in r.pairs for o in opens):
                return Verdict(False, witness={"axiom": 3, "point": x.names[p], "open": set_label(x.names, u)})
    for cycle in _refinement_cycles(r, opens):
        family = sorted(cycle)
        points = _basis_points(x, family, opens)
        if len(points) != 1:
            return Verdict(False, witness={"axiom": 4,
                                           "cycle": tuple(set_label(x.names, m) for m in family),
                                           "basis_points": tuple(x.names[p] for p in points)})
    return Verdict(True, info={"checker": "validate_approx_relation", "pairs": len(r.pairs), "opens": len(opens)})


def _refinement_cycles(r: ApproxRelation, opens) -> list[set[int]]:
    """Mutual-refinement classes that contain at least one edge."""
    idx = {u: i for i, u in enumerate(opens)}
    n = len(opens)
    reach = [0] * n
    for u, v in r.pairs:
        if u in idx and v in idx:
            reach[idx[u]] |= 1 << idx[v]
    for k in range(n):
        bk = 1 << k
        for i in range(n):
            if reach[i] & bk:
                reach[i] |= reach[k]
    seen = set()
    cycles = []
    for i in range(n):
        if (reach[i] >> i) & 1 and i not in seen:
            comp = {j for j in bits(reach[i]) if (reach[j] >> i) & 1}
            seen |= comp
            cycles.append({opens[j] for j in comp})
    return cycles


def _basis_points(x: FiniteSpace, family, opens) -> list[int]:
    """Points for which the family is a neighborhood basis."""
    out = []
    for p in range(x.n):
        if any(not ((u >> p) & 1) for u in family):
            continue
        good = True
        for w in opens:
            if not ((w >> p) & 1):
                continue
            if not any((u >> p) & 1 and not (u & ~w) for u in family):
                good = False
                break
        if good:
            out.append(p)
    return out


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
        node_set = set(self.nodes)
        if len(self.assignment) != len(self.nodes):
            raise PreconditionViolated("one open per tree node")
        if () not in node_set:
            raise PreconditionViolated("the tree must contain the root")
        for s in self.nodes:
            if s and s[:-1] not in node_set:
                raise PreconditionViolated("the tree must be prefix closed")
        assign = dict(zip(self.nodes, self.assignment))
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


def _greedy_cover(candidates, k_mask: int):
    """Deterministic subcover: scan by open-family index, keep a candidate
    exactly when it covers something still uncovered."""
    chosen = []
    remaining = k_mask
    for v in candidates:
        if remaining == 0:
            break
        if v & remaining:
            chosen.append(v)
            remaining &= ~v
    return chosen, remaining


def _decompose(x: FiniteSpace, r: ApproxRelation, k_mask: int, u1: int, u2: int, limits: Limits):
    opens = x.opens(limits)
    levels = []
    fvals, gvals = frozenset([u1]), frozenset([u2])
    seen: dict[tuple[frozenset, frozenset], int] = {}
    while (fvals, gvals) not in seen:
        seen[(fvals, gvals)] = len(levels)
        # the opens refining some live value, filtered from opens in order
        # so the greedy cover scans them by open-family index
        f_refiners = {v for u in fvals for v in r.refiners_of(u)}
        g_refiners = {v for u in gvals for v in r.refiners_of(u)}
        pool = [v for v in opens if v in f_refiners or v in g_refiners]
        chosen, remaining = _greedy_cover(pool, k_mask)
        if remaining:
            raise PreconditionViolated(
                "the refinement relation cannot cover the compact set "
                f"(missing {set_label(x.names, remaining)})"
            )
        next_f = frozenset(v for v in chosen if v in f_refiners)
        next_g = frozenset(v for v in chosen if v in g_refiners)
        levels.append({"f": fvals, "g": gvals, "chosen": tuple(chosen)})
        fvals, gvals = next_f, next_g
    start = seen[(fvals, gvals)]
    cycle = levels[start:]
    stable_f = _stable(r, cycle, "f")
    stable_g = _stable(r, cycle, "g")
    k1 = 0
    for v in stable_f:
        k1 |= v
    k2 = 0
    for v in stable_g:
        k2 |= v
    return levels, start, stable_f, stable_g, k1, k2


def _stable(r: ApproxRelation, cycle, side: str) -> list[int]:
    """Opens refining themselves that stay alive and chosen around the
    whole cycle; these are exactly the eventual values of infinite paths."""
    out = []
    candidates = set.intersection(*(set(level[side]) for level in cycle)) if cycle else set()
    for v in sorted(candidates):
        if r.refines(v, v) and all(v in level["chosen"] for level in cycle):
            out.append(v)
    return out


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
    for s in (k, u1, u2):
        if s.space != x:
            raise PreconditionViolated("all sets must live in the given space")
    if not x.is_open(u1.mask) or not x.is_open(u2.mask):
        raise PreconditionViolated("U1 and U2 must be open")
    if x.saturation_mask(k.mask) != k.mask:
        raise PreconditionViolated("K must be saturated")
    if k.mask & ~(u1.mask | u2.mask):
        raise PreconditionViolated("K must be covered by U1 and U2")
    if not validate_approx_relation(r, limits).holds:
        raise PreconditionViolated("the approximation relation fails its axioms")
    *_, k1, k2 = _decompose(x, r, k.mask, u1.mask, u2.mask, limits)
    if k1 & ~u1.mask or k2 & ~u2.mask or k.mask & ~(k1 | k2):
        raise AssertionError("decomposition postconditions violated")
    return PtSet(x, k1), PtSet(x, k2)


def wilker_decomposition_trace(
    x: FiniteSpace,
    r: ApproxRelation,
    k: PtSet,
    u1: PtSet,
    u2: PtSet,
    limits: Limits = DEFAULT_LIMITS,
) -> dict:
    """Same walk as wilker_decompose, exported level by level for audit."""
    levels, start, stable_f, stable_g, k1, k2 = _decompose(x, r, k.mask, u1.mask, u2.mask, limits)
    lbl = lambda m: set_label(x.names, m)
    return {
        "levels": [
            {"f": sorted(map(lbl, lv["f"])), "g": sorted(map(lbl, lv["g"])), "chosen": [lbl(c) for c in lv["chosen"]]}
            for lv in levels
        ],
        "cycle_start": start,
        "stable_f": [lbl(v) for v in stable_f],
        "stable_g": [lbl(v) for v in stable_g],
        "k1": lbl(k1),
        "k2": lbl(k2),
    }
