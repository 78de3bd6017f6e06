"""Exact-arithmetic model of the BV algebra of polyvector fields on the
algebraic torus, with its Witt/sl2 representation theory and a
combinatorial wrapped-complex model."""

from .bvalgebra import (
    PolyVector,
    bv_delta,
    bv_delta_divergence,
    gerstenhaber_bracket,
    wedge,
)
from .cocycle import CE1Cochain, ce_differential_check, is_cocycle_on_window
from .densityrep import (
    DensityRepSpec,
    FiniteSl2Module,
    check_irreducible,
    extract_finite_sl2_submodule,
    rho_apply,
    shift_isomorphism_check,
    verify_lie_action,
)
from .floermodel import (
    identify_with_density_model,
    solve_forced_action,
)
from .laurent import LaurentPoly, RankMismatchError
from .liealg import (
    GlMatrixElement,
    cartan_subalgebra,
    restrict_from_projective,
    root_grading,
    verify_lie_embedding,
)
from .parsing import ParseError, format_polyvector, parse_laurent, parse_polyvector

__all__ = [
    "CE1Cochain",
    "DensityRepSpec",
    "FiniteSl2Module",
    "GlMatrixElement",
    "LaurentPoly",
    "ParseError",
    "PolyVector",
    "RankMismatchError",
    "bv_delta",
    "bv_delta_divergence",
    "cartan_subalgebra",
    "ce_differential_check",
    "check_irreducible",
    "extract_finite_sl2_submodule",
    "format_polyvector",
    "gerstenhaber_bracket",
    "identify_with_density_model",
    "is_cocycle_on_window",
    "parse_laurent",
    "parse_polyvector",
    "restrict_from_projective",
    "rho_apply",
    "root_grading",
    "shift_isomorphism_check",
    "solve_forced_action",
    "verify_lie_action",
    "verify_lie_embedding",
    "wedge",
]
