"""A finite/cofinite set engine over the naturals, with one added top point.

Two symbolic spaces are enough for the three infinite counterexamples:

OMEGA_TOP       the naturals below a single top point, carrying the weak
                topology; opens are the empty set and the cofinite sets
                containing top, closed sets are the finite subsets of the
                naturals and the whole space
OMEGA_DISCRETE  the naturals with the discrete topology, restricted to
                the finite/cofinite definable subsets, which is all the
                counterexample quantifies over

Every certificate below rests on one move: any finite amount of data has
a fresh natural above it, and the singleton of that natural slips into
the set being tested.  That rule is one plain function, fresh_natural:
the three verifiers call it, and the test suite replays it against a
truncated concrete model of the algebra.
Compactness of the sets involved (where the argument needs it) is taken
from the image-of-a-compact-space description and recorded in the verdict
rather than machine-checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import Verdict


@dataclass(frozen=True)
class CofinSet:
    """A finite or cofinite subset of the naturals, top point optional.

    cofinite False: the set is support (plus top when flagged)
    cofinite True:  the set is everything outside support (plus top)
    The representation is canonical, so equality is structural.
    """

    cofinite: bool
    support: frozenset[int]
    includes_top: bool = False

    @property
    def mode(self) -> str:
        return "cofinite" if self.cofinite else "finite"

    def contains(self, n: int) -> bool:
        return (n in self.support) != self.cofinite

    def complement(self) -> "CofinSet":
        return CofinSet(not self.cofinite, self.support, not self.includes_top)

    def union(self, other: "CofinSet") -> "CofinSet":
        top = self.includes_top or other.includes_top
        if not self.cofinite and not other.cofinite:
            return CofinSet(False, self.support | other.support, top)
        if self.cofinite and other.cofinite:
            return CofinSet(True, self.support & other.support, top)
        fin, cof = (self, other) if other.cofinite else (other, self)
        return CofinSet(True, cof.support - fin.support, top)

    def intersection(self, other: "CofinSet") -> "CofinSet":
        return self.complement().union(other.complement()).complement()

    def is_empty(self) -> bool:
        return not self.cofinite and not self.support and not self.includes_top

    def is_subset(self, other: "CofinSet") -> bool:
        return self.intersection(other.complement()).is_empty()

    def finite_size(self) -> int | None:
        """Cardinality of the natural part when finite, None otherwise."""
        if self.cofinite:
            return None
        return len(self.support)

    def realize(self, universe: int) -> tuple[frozenset[int], bool]:
        """Concrete truncation to {0..universe-1}; faithful whenever the
        support sits below the universe."""
        base = frozenset(n for n in range(universe) if self.contains(n))
        return base, self.includes_top


EMPTY = CofinSet(False, frozenset())
FULL_WITH_TOP = CofinSet(True, frozenset(), True)
NATURALS = CofinSet(True, frozenset(), False)


def finite(ns: Iterable[int], top: bool = False) -> CofinSet:
    return CofinSet(False, frozenset(ns), top)


def cofinite(excluded: Iterable[int], top: bool = True) -> CofinSet:
    return CofinSet(True, frozenset(excluded), top)


@dataclass(frozen=True)
class SymbolicSpace:
    name: str
    is_open: Callable[[CofinSet], bool]
    is_closed: Callable[[CofinSet], bool]


OMEGA_TOP = SymbolicSpace(
    "naturals-below-a-top-point",
    is_open=lambda s: s.is_empty() or (s.cofinite and s.includes_top),
    is_closed=lambda s: (not s.cofinite and not s.includes_top) or s == FULL_WITH_TOP,
)

OMEGA_DISCRETE = SymbolicSpace(
    "discrete-naturals",
    is_open=lambda s: not s.includes_top,
    is_closed=lambda s: not s.includes_top,
)


def fresh_natural(supports: Iterable[frozenset[int]]) -> int:
    """The least natural above everything the supports mention.  Its
    singleton meets every cofinite set over them and holds none of the
    non-empty finite ones, which is the witness each verifier needs."""
    top = -1
    for s in supports:
        if s:
            top = max(top, max(s))
    return top + 1


def _random_supports(rng: random.Random, count: int, width: int = 31) -> list[frozenset[int]]:
    out = []
    for _ in range(count):
        size = rng.randrange(0, 4)
        out.append(frozenset(rng.randrange(width) for _ in range(size)))
    return out


def verify_scott_open_not_vietoris_open(samples: int = 100, seed: int = 0) -> Verdict:
    """Over the naturals-below-a-top space, the closed sets of size at
    least two (together with the whole space) form a Scott-open family
    that no basic lower-Vietoris open fits inside.

    Sub-checks: the family is upward closed; two incomparable non-empty
    members of a directed family force a member of size two; a directed
    family of at-most-singletons never reaches the family; and the fresh
    singleton rule places a small closed set inside every basic open.
    """
    rng = random.Random(seed)
    in_family = lambda s: s == FULL_WITH_TOP or (s.finite_size() or 0) >= 2

    derivation = []
    for _ in range(samples):
        a = finite(_random_supports(rng, 1)[0])
        extra = _random_supports(rng, 1)[0]
        b = finite(a.support | extra)
        if in_family(a) and not in_family(b):
            return Verdict(False, witness={"sub_check": "upward_closure", "smaller": sorted(a.support)})
    derivation.append("upward closed on sampled closed pairs")

    for _ in range(samples):
        sup_a, sup_b = _random_supports(rng, 2)
        if not sup_a or not sup_b or sup_a <= sup_b or sup_b <= sup_a:
            continue
        bound = finite(sup_a | sup_b)
        if (bound.finite_size() or 0) < 2:
            return Verdict(False, witness={"sub_check": "directed_bound", "sets": [sorted(sup_a), sorted(sup_b)]})
    derivation.append("any bound of two incomparable members has size at least two")

    for _ in range(samples):
        n = rng.randrange(31)
        chain = [EMPTY, finite([n])]
        if any(in_family(c) for c in chain):
            return Verdict(False, witness={"sub_check": "singleton_chain", "point": n})
    derivation.append("directed families of at-most-singletons stay outside")

    checked = 0
    for _ in range(samples):
        fams = _random_supports(rng, rng.randrange(0, 5))
        n = fresh_natural(fams)
        singleton = finite([n])
        for f in fams:
            basic = cofinite(f)  # the open below the diamond
            if singleton.intersection(basic).is_empty():
                return Verdict(False, witness={"sub_check": "witness_rule", "families": [sorted(x) for x in fams]})
            if FULL_WITH_TOP.intersection(basic).is_empty():
                return Verdict(False, witness={"sub_check": "basic_misses_family", "family": sorted(f)})
        if in_family(singleton):
            return Verdict(False, witness={"sub_check": "witness_in_family", "point": n})
        checked += 1
    derivation.append("every basic open around the family contains a closed singleton")

    return Verdict(True, info={
        "checker": "verify_scott_open_not_vietoris_open",
        "instances": checked,
        "derivation": derivation,
    })


def verify_vietoris_open_not_weak_open(samples: int = 100, seed: int = 0) -> Verdict:
    """Over the discrete naturals, the singleton family of the empty
    compact set is upper-Vietoris open (the box of the empty open) but
    every weak basic neighborhood of it also holds a compact singleton."""
    rng = random.Random(seed)

    for _ in range(samples):
        k = finite(_random_supports(rng, 1)[0])
        # the empty compact avoids the weak subbasic of K exactly when K is non-empty
        if (not k.is_subset(EMPTY)) != (not k.is_empty()):
            return Verdict(False, witness={"sub_check": "empty_in_subbasic", "set": sorted(k.support)})

    for _ in range(samples):
        k = finite(_random_supports(rng, 1)[0])
        if k.is_subset(EMPTY) != k.is_empty():
            return Verdict(False, witness={"sub_check": "box_empty_is_singleton", "set": sorted(k.support)})

    checked = 0
    for _ in range(samples):
        compacts = [s for s in _random_supports(rng, rng.randrange(0, 5)) if s]
        n = fresh_natural(compacts)
        singleton = finite([n])
        for ksup in compacts:
            if finite(ksup).is_subset(singleton):
                return Verdict(False, witness={"sub_check": "witness_rule", "compacts": [sorted(x) for x in compacts]})
        if singleton.is_empty():
            return Verdict(False, witness={"sub_check": "witness_nonempty", "point": n})
        checked += 1

    return Verdict(True, info={
        "checker": "verify_vietoris_open_not_weak_open",
        "instances": checked,
        "derivation": [
            "the empty compact lies in the weak subbasic of K exactly when K is non-empty",
            "the box of the empty open holds the empty compact alone",
            "each weak basic neighborhood of the empty compact holds a fresh compact singleton",
        ],
    })


def verify_lower_powerspace_not_coconsonant(samples: int = 100, seed: int = 0) -> Verdict:
    """Over the naturals-below-a-top space, the non-empty closed sets form
    an open and compact family that is no finite saturation: any finite
    family of non-empty closed sets misses a fresh closed singleton.

    Compactness of the family is the image-of-a-compact-space argument
    and is recorded, not machine checked; openness and the saturation gap
    are checked on randomized instances.
    """
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        members: list[CofinSet] = []
        for sup in _random_supports(rng, rng.randrange(0, 4)):
            if sup:
                members.append(finite(sup))
        if rng.random() < 0.3:
            members.append(FULL_WITH_TOP)
        finite_supports = [m.support for m in members if not m.cofinite]
        n = fresh_natural(finite_supports)
        singleton = finite([n])
        if singleton.is_empty():
            return Verdict(False, witness={"sub_check": "witness_nonempty", "point": n})
        for m in members:
            if m.is_subset(singleton):
                return Verdict(False, witness={
                    "sub_check": "witness_rule",
                    "members": [sorted(m2.support) if not m2.cofinite else "whole-space" for m2 in members],
                })
        checked += 1
    return Verdict(True, info={
        "checker": "verify_lower_powerspace_not_coconsonant",
        "instances": checked,
        "compactness": "recorded from the image-of-a-compact-space description, not machine checked",
        "derivation": [
            "the family of non-empty closed sets is the diamond of the whole space, hence open",
            "a fresh closed singleton avoids the saturation of any finite subfamily",
        ],
    })


COUNTEREXAMPLES = {
    "scott-open-not-vietoris": verify_scott_open_not_vietoris_open,
    "vietoris-open-not-weak": verify_vietoris_open_not_weak_open,
    "lower-powerspace-not-coconsonant": verify_lower_powerspace_not_coconsonant,
}
