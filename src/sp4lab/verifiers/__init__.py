"""Verifier layer: exhaustive and sampled checks of every discrete claim."""

from sp4lab.verifiers.averaging import (
    FiniteGroupRep,
    dihedral_4_standard,
    invariance_forces_zero,
    product_coverage,
    symmetric_3_standard,
    verify_averaging,
)
from sp4lab.verifiers.cells import (
    HARD_BUDGET,
    case_count,
    tuple_space,
    verify_cell_lemma,
    verify_witness_identities,
)
from sp4lab.verifiers.decompose import (
    DecompositionError,
    FactorList,
    block_count_of,
    decompose_k1k2,
    expand_lower,
    lower_from_params,
    lower_params,
    weyl_reps,
)
from sp4lab.verifiers.parity import (
    parity_depth_profile,
    parity_volumes,
    wedge_valuation,
)
from sp4lab.verifiers.reports import (
    PASS,
    UNDECIDED,
    VIOLATED,
    BudgetExceededError,
    VerificationReport,
)
from sp4lab.verifiers.sampling import (
    enumerate_symplectic_residue,
    lift_symplectic,
    random_k_element,
    sample_symplectic_residue,
    symplectic_group_order,
)

__all__ = [
    "BudgetExceededError",
    "DecompositionError",
    "FactorList",
    "FiniteGroupRep",
    "HARD_BUDGET",
    "PASS",
    "UNDECIDED",
    "VIOLATED",
    "VerificationReport",
    "block_count_of",
    "case_count",
    "decompose_k1k2",
    "dihedral_4_standard",
    "enumerate_symplectic_residue",
    "expand_lower",
    "invariance_forces_zero",
    "lift_symplectic",
    "lower_from_params",
    "lower_params",
    "parity_depth_profile",
    "parity_volumes",
    "product_coverage",
    "random_k_element",
    "sample_symplectic_residue",
    "symmetric_3_standard",
    "symplectic_group_order",
    "tuple_space",
    "verify_averaging",
    "verify_cell_lemma",
    "verify_witness_identities",
    "wedge_valuation",
    "weyl_reps",
]
