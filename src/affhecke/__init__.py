"""Exact arithmetic for the extended affine symmetric group of window
permutations, its generic deformation algebra over Laurent polynomials,
the positive subalgebra with its two-sided ideals and quotients, the
canonical basis, and a finite-field convolution oracle that brute-force
verifies the structural theorems in small rank.
"""

from .errors import (
    AffheckeError,
    DomainMismatchError,
    ElementParseError,
    IncompatibleFamilyError,
    InternalInvariantError,
    NegativeEntryError,
    NonDominantError,
    NotPositiveError,
    RankMismatchError,
    ResourceLimitError,
    SpecMismatchError,
    UnsupportedParameterError,
)
from .laurent import LaurentPoly
from .weyl import AffinePerm, Word
from .hecke import (
    HeckeElt,
    bar_involution,
    invert_t,
    one,
    t_basis,
    t_tilde,
    x_element,
    x_element_inverse,
    x_monomial,
)
from .quotients import (
    IdealSpec,
    QuotientElt,
    double_coset_span_check,
    generated_span_check,
    ideal_generator,
    in_ideal,
    in_positive,
    minimal_partitions,
    quotient_mul,
    reduce,
)
from .canonical import (
    CanonicalElt,
    canonical_basis,
    positive_canonical_basis,
    quotient_canonical_basis,
)
from .flags import FlagContext
from .oracle import (
    OrbitFunction,
    Report,
    bicommutant_check,
    im_psi_check,
    lift_family,
    lift_trials,
    verify_hecke_iso,
)

__version__ = "0.1.0"

__all__ = [
    "AffheckeError",
    "AffinePerm",
    "CanonicalElt",
    "DomainMismatchError",
    "ElementParseError",
    "FlagContext",
    "HeckeElt",
    "IdealSpec",
    "IncompatibleFamilyError",
    "InternalInvariantError",
    "LaurentPoly",
    "NegativeEntryError",
    "NonDominantError",
    "NotPositiveError",
    "OrbitFunction",
    "QuotientElt",
    "RankMismatchError",
    "Report",
    "ResourceLimitError",
    "SpecMismatchError",
    "UnsupportedParameterError",
    "Word",
    "bar_involution",
    "bicommutant_check",
    "canonical_basis",
    "double_coset_span_check",
    "generated_span_check",
    "ideal_generator",
    "im_psi_check",
    "in_ideal",
    "in_positive",
    "invert_t",
    "lift_family",
    "lift_trials",
    "minimal_partitions",
    "one",
    "positive_canonical_basis",
    "quotient_canonical_basis",
    "quotient_mul",
    "reduce",
    "t_basis",
    "t_tilde",
    "verify_hecke_iso",
    "x_element",
    "x_element_inverse",
    "x_monomial",
]
