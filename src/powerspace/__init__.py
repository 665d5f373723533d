"""Powerspace constructions on finite T0 spaces.

Finite T0 spaces are finite posets; on them the lower, upper, convex and
open-lattice constructions, the canonical homeomorphisms between their
compositions, and the associated decision procedures are all computable
by exhaustive enumeration.  This package makes them executable and ships
verification suites that run the whole theory at desk scale.
"""

from .config import DEFAULT_LIMITS, Limits
from .core import (
    FiniteSpace,
    PtSet,
    SpaceMap,
    Verdict,
    antichain,
    chain,
    check_continuous,
    closure,
    compose,
    empty_space,
    enumerate_spaces,
    identity_map,
    interior,
    saturation,
    sierpinski,
    space_from_json,
    space_from_opens,
    space_from_poset,
    space_to_json,
    subspace,
)
from .powerspaces import (
    ConstructedSpace,
    Powers,
    convex_powerspace,
    functor_map,
    lower_powerspace,
    monad_mult,
    monad_unit,
    open_lattice,
    structure_map,
    to_dot,
    upper_powerspace,
)
from .canonical import (
    CanonicalMapPair,
    ModalGenerator,
    alpha_beta,
    check_distributive_law,
    check_naturality,
    check_preimage_identities,
    gamma_delta,
    modal_set,
    phi_psi,
    sigma_tau,
    verify_pair,
)

__version__ = "0.1.0"
