"""Exact-arithmetic verifiers for the Sp4 Cartan/valuation substrate."""

from sp4lab.exactfield import (
    EQUAL,
    MIXED,
    FieldConfigError,
    FieldSpec,
    NonIntegralError,
    make_field,
    parse_field,
    reduce_mod,
    residue_ring,
    two_valuation,
    valuation_and_norm,
)
from sp4lab.sp4 import (
    GroupElement,
    SymplecticError,
    cartan_invariants,
    d_matrix,
    subgroup_membership,
    symplectic_check,
)

__all__ = [
    "EQUAL",
    "MIXED",
    "FieldConfigError",
    "FieldSpec",
    "GroupElement",
    "NonIntegralError",
    "SymplecticError",
    "cartan_invariants",
    "d_matrix",
    "make_field",
    "parse_field",
    "reduce_mod",
    "residue_ring",
    "subgroup_membership",
    "symplectic_check",
    "two_valuation",
    "valuation_and_norm",
]

__version__ = "0.1.0"
