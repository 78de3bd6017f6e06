"""Rules about the package as a whole: its public names, and no runtime
check that `python -O` would strip."""

import ast
from pathlib import Path

import torusbv

SRC = Path(torusbv.__file__).resolve().parent

# Change this list only on purpose: every name here is public surface.
PUBLIC_NAMES = [
    "CE1Cochain",
    "ChordGenerator",
    "DensityRepSpec",
    "FiniteSl2Module",
    "GlMatrixElement",
    "LaurentPoly",
    "ParseError",
    "PolyVector",
    "RankMismatchError",
    "Sl2Triple",
    "bv_delta",
    "bv_delta_divergence",
    "cartan_subalgebra",
    "ce_differential_check",
    "check_irreducible",
    "end_action",
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
    "standard_sl2",
    "verify_lie_action",
    "verify_lie_embedding",
    "wedge",
    "witt_bracket",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(torusbv.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(torusbv, name)] == []


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
