"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or read the
captured output).  Everything is exact arithmetic; total runtime stays
well under a minute.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

from torusbv.bvalgebra import PolyVector, gerstenhaber_bracket
from torusbv.densityrep import (
    DensityRepSpec,
    check_irreducible,
    extract_finite_sl2_submodule,
    shift_isomorphism_check,
)
from torusbv.floermodel import identify_with_density_model, solve_forced_action
from torusbv.liealg import verify_lie_embedding, root_system_report
from torusbv.parsing import format_polyvector, parse_polyvector
from torusbv.suites import (
    DEFAULT_SEED,
    bv_axiom_suite,
    cocycle_suite,
    random_polyvector,
    witt_closed_form_suite,
)


def report(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_bv_axioms():
    result = bv_axiom_suite(seed=DEFAULT_SEED, cases=200, ranks=(1, 2, 3))
    names = {c["name"] for c in result["checks"]}
    ok = (
        result["passed"]
        and "delta_contraction_equals_divergence" in names
        and "bracket_equals_bv_derived" in names
    )
    report(1, "BV axiom suite, 200 seeded cases, ranks 1-3", ok)


def test_criterion_2_witt_closed_forms():
    result = witt_closed_form_suite()
    names = [c["name"] for c in result["checks"]]
    assert names == ["rank1_bracket_closed_form", "vector_field_bracket_closed_form"]
    report(2, "Witt bracket closed forms, rank 1 window 4 and ranks <= 3 window 2",
           result["passed"])


def test_criterion_3_sl2_triple():
    e = PolyVector.xi(1, (1,), 1)
    h = PolyVector.xi(1, (0,), 1).scale(2)
    f = PolyVector.xi(1, (-1,), 1).scale(-1)
    ok = (
        gerstenhaber_bracket(h, e) == e.scale(2)
        and gerstenhaber_bracket(h, f) == f.scale(-2)
        and gerstenhaber_bracket(e, f) == h
    )
    report(3, "sl2 triple relations", ok)


def test_criterion_4_sl_embedding():
    ok = True
    for rank in (1, 2, 3):
        emb = verify_lie_embedding(rank)
        roots = root_system_report(rank)
        ok &= emb["homomorphism_ok"] and emb["scalars_killed"] and emb["injective_on_sl"]
        ok &= roots["matches_type_a"] and roots["root_count"] == rank * (rank + 1)
    report(4, "projective restriction is an sl_{r+1} embedding with A_r roots", ok)


def test_criterion_5_cocycles():
    result = cocycle_suite(rank=1, window=4, seed=DEFAULT_SEED)
    names = {c["name"]: c["ok"] for c in result["checks"]}
    ok = result["passed"] and names.get("engineered_non_cocycle_fails", False)
    report(5, "cocycle suite at window 4, with engineered failure", ok)


def test_criterion_6_rep_classification():
    ok = True
    for two_alpha in range(-8, 3):
        for two_beta in range(-8, 9):
            alpha = Fraction(two_alpha, 2)
            beta = Fraction(two_beta, 2)
            module = extract_finite_sl2_submodule(DensityRepSpec(alpha, beta))
            expected = alpha <= 0 and (alpha + beta).denominator == 1
            ok &= (module is not None) == expected
            if module is not None:
                n = -two_alpha
                ok &= module.dim == -2 * alpha + 1
                ok &= module.h_spectrum() == [Fraction(v) for v in range(-n, n + 1, 2)]
                ok &= check_irreducible(module)
    report(6, "finite submodule classification on the half-integer grid", ok)


def test_criterion_7_shift_isomorphism():
    rng = random.Random(DEFAULT_SEED)
    ok = True
    for _ in range(5):
        alpha = Fraction(rng.randint(-8, 4), 2)
        beta = Fraction(rng.randint(-8, 8), 2)
        m = rng.randint(-5, 5)
        ok &= shift_isomorphism_check(alpha, beta, m)
    report(7, "shift isomorphism on window [-8, 8], five seeded triples", ok)


def test_criterion_8_floer_forcing():
    ok = True
    for n in range(1, 7):
        solutions = solve_forced_action(n)
        ok &= len(solutions) == 1
        if solutions:
            action = solutions[0]
            ok &= action.dim == n + 1
            ok &= action.casimir() == Fraction(n * (n + 2), 2)
            ok &= identify_with_density_model(n)["matches"]
    report(8, "forced sl2 action is unique and matches the density model, n = 1..6", ok)


def test_criterion_9_cli_determinism_and_round_trip():
    args = [
        sys.executable, "-m", "torusbv.cli",
        "verify", "cocycles", "--window", "3", "--seed", str(DEFAULT_SEED), "--json",
    ]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    ok = first.returncode == 0 and first.stdout == second.stdout
    ok = ok and json.loads(first.stdout)["result"]["passed"]

    rng = random.Random(DEFAULT_SEED)
    count = 0
    while count < 100:
        rank = rng.choice([1, 2, 3])
        pv = random_polyvector(rng, rank)
        if pv.is_zero():
            continue
        count += 1
        ok = ok and parse_polyvector(format_polyvector(pv), rank) == pv
    report(9, "CLI determinism and parse/print round trip on 100 elements", ok)
