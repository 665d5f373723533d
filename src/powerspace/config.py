"""Run-time limits, bundled so suites and the CLI can override them together."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Limits:
    """Caps that keep the doubly exponential constructions at desk scale.

    max_construction_points   hard cap on the point count of any single
                              constructed space or materialized open family,
                              decided by counting before the family is
                              enumerated, so an enumeration never aborts
    seed                      seed for the counterexample suite's sampled
                              checks on its infinite spaces; no check on a
                              finite space samples
    """

    max_construction_points: int = 1 << 20
    seed: int = 0

    def with_cap(self, cap: int) -> "Limits":
        return replace(self, max_construction_points=cap)


DEFAULT_LIMITS = Limits()
