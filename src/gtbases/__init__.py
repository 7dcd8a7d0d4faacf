"""Exact constructions of classical Lie algebra representations in
Gelfand-Tsetlin-type bases, with the operator identities that come with
them (lowering operators, Capelli determinant, quantum minors, Yangian
actions) verified in exact rational arithmetic."""

from .exact import OpPoly, Rat, SparseMat, factorial, nullspace
from .patterns import (GTPatternA, PatternB3, PatternB4, PatternC3, PatternD3,
                       PatternD4, SemistandardTableau, enumerate_patterns,
                       pattern_to_tableau, tableau_to_pattern, validate, weight)
from .branching import (BranchSpec, branch_A, branch_BCD, branch_children_BCD,
                        schur, schur_exponents, to_dominant, weyl_dim, weyl_dim_s3)
from .gln import GlnIrrep, build_irrep
from .yangian import (HWString, YTensorModule, build_tensor_module, eta_basis,
                      irreducible_Y2, irreducible_Yminus, irreducible_Yplus,
                      quantum_det, string_general_position, twisted_basis,
                      twisted_snn)
from .liealg_bcd import (BCDIrrep, ClassicalAlgebra, DeskScaleError,
                         OrthogonalChain, build_bcd_irrep, fnn_action_check,
                         gt_basis_bcd, lowering_zia, multiplicity_basis,
                         orth_gt_basis, z_interp, z_interp_poly, zab_operators)

__all__ = [
    "OpPoly", "Rat", "SparseMat", "factorial", "nullspace",
    "GTPatternA", "PatternB3", "PatternB4", "PatternC3", "PatternD3", "PatternD4",
    "SemistandardTableau", "enumerate_patterns", "pattern_to_tableau",
    "tableau_to_pattern", "validate", "weight",
    "BranchSpec", "branch_A", "branch_BCD", "branch_children_BCD", "schur",
    "schur_exponents", "to_dominant", "weyl_dim", "weyl_dim_s3",
    "GlnIrrep", "build_irrep",
    "HWString", "YTensorModule", "build_tensor_module", "eta_basis",
    "irreducible_Y2", "irreducible_Yminus", "irreducible_Yplus", "quantum_det",
    "string_general_position", "twisted_basis", "twisted_snn",
    "BCDIrrep", "ClassicalAlgebra", "DeskScaleError", "OrthogonalChain",
    "build_bcd_irrep", "fnn_action_check", "gt_basis_bcd", "lowering_zia",
    "multiplicity_basis", "orth_gt_basis", "z_interp", "z_interp_poly",
    "zab_operators",
]
