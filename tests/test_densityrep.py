import functools
import itertools
import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torusbv import densityrep
from torusbv.bvalgebra import PolyVector
from torusbv.densityrep import _rho_terms as rho_terms
from torusbv.densityrep import (
    DensityRepSpec,
    FiniteSl2Module,
    check_irreducible,
    classification_grid,
    extract_finite_sl2_submodule,
    rho_apply,
    shift_isomorphism_check,
    verify_lie_action,
)
from torusbv.floermodel import solve_forced_action
from torusbv.laurent import LaurentPoly, SparseStore

from conftest import DensityPlants


def zpow(n, coeff=1):
    return LaurentPoly(1, {(n,): coeff})


def nonzero(terms):
    return {key: c for key, c in terms.items() if c}


def exact_terms(spec, i, terms):
    """The term map with its zeros dropped: `LaurentPoly._raw` keeps such
    a dict as it is, so a stateful map below knows its own results by id
    also when `rho_apply` wraps them."""
    return nonzero(rho_terms(spec, i, terms))


class Lookalike(LaurentPoly):
    """Another store type with the same terms as a LaurentPoly."""

    __slots__ = ()


def test_reference_action_is_bracket_action():
    spec = DensityRepSpec(0, 0)
    for i in range(-3, 4):
        for j in range(-3, 4):
            assert rho_apply(spec, i, zpow(j)) == zpow(i + j, j)


def test_rho_kills_tuned_monomials():
    spec = DensityRepSpec(-1, -1)
    assert rho_apply(spec, 1, zpow(2)).is_zero()
    assert rho_apply(spec, -1, zpow(0)).is_zero()


def test_rho_requires_rank1():
    with pytest.raises(ValueError):
        rho_apply(DensityRepSpec(0, 0), 1, LaurentPoly(2, {(1, 0): 1}))


@pytest.mark.parametrize("value, name", [
    (PolyVector(1, {((1,), (1,)): 1}), "PolyVector"),
    (PolyVector(1, {((1,), ()): 1}), "PolyVector"),
    ({(1,): 1}, "dict"),
    (Lookalike._raw(1, {(1,): 1}), "Lookalike"),
], ids=["vector_field", "function_as_polyvector", "dict", "subclass"])
def test_rho_requires_a_laurent_poly(value, name):
    # a rank-1 PolyVector raised "too many values to unpack" and a dict
    # AttributeError; cocycle.module_action raises the same TypeError
    with pytest.raises(TypeError, match=rf"^density must be a LaurentPoly, got {name}$"):
        rho_apply(DensityRepSpec(0, 0), 1, value)


def test_lie_action_holds_for_sampled_specs():
    for alpha, beta in [(0, 0), (Fraction(1, 2), 0), (-1, -1), (Fraction(-3, 2), Fraction(5, 2))]:
        assert verify_lie_action(DensityRepSpec(alpha, beta), -8, 8)


def test_existence_criterion():
    def exists(alpha, beta):
        return extract_finite_sl2_submodule(DensityRepSpec(alpha, beta)) is not None

    assert exists(-1, -1)
    assert exists(0, 0)
    assert exists(Fraction(-1, 2), Fraction(1, 2))
    assert not exists(Fraction(1, 2), Fraction(1, 2))
    assert not exists(Fraction(-1, 2), 0)
    assert not exists(Fraction(-1, 3), Fraction(1, 3))


def test_extract_dim3_module():
    module = extract_finite_sl2_submodule(DensityRepSpec(-1, -1))
    assert module.dim == 3
    assert module.basis_exponents == [0, 1, 2]
    assert module.h_spectrum() == [-2, 0, 2]


def test_extract_trivial_module():
    module = extract_finite_sl2_submodule(DensityRepSpec(0, 0))
    assert module.dim == 1
    assert module.basis_exponents == [0]
    assert module.h_spectrum() == [0]
    assert check_irreducible(module)


def test_extract_refuses_bad_parameters():
    assert extract_finite_sl2_submodule(DensityRepSpec(Fraction(1, 2), Fraction(1, 2))) is None
    assert extract_finite_sl2_submodule(DensityRepSpec(Fraction(-1, 2), 0)) is None


def test_extract_dim4_irreducible():
    module = extract_finite_sl2_submodule(DensityRepSpec(Fraction(-3, 2), Fraction(-3, 2)))
    assert module.dim == 4
    assert module.h_spectrum() == [-3, -1, 1, 3]
    assert check_irreducible(module)


def test_reducible_fixture_detected():
    # Direct sum of two trivial modules: span{first vector} is invariant.
    fixture = FiniteSl2Module.unchecked([0, 5], [0, 0], [0], [0])
    assert not check_irreducible(fixture)


def test_casimir_scalar_on_extracted_modules():
    for two_alpha in range(-6, 1):
        n = -two_alpha
        spec = DensityRepSpec(Fraction(two_alpha, 2), Fraction(two_alpha, 2))
        module = extract_finite_sl2_submodule(spec)
        assert module.casimir() == Fraction(n * (n + 2), 2)


def test_classification_sweep_matches_criterion():
    rows = list(classification_grid(grid=8))
    assert len(rows) == 11 * 17
    for spec, module in rows:
        alpha, beta = spec.alpha, spec.beta
        should_exist = alpha <= 0 and (2 * alpha).denominator == 1 and (alpha + beta).denominator == 1
        assert (module is not None) == should_exist
        if should_exist:
            assert module.dim == -2 * alpha + 1


def fraction_rule_module(alpha, beta):
    """The extraction as a rule on alpha and beta, kept as an oracle:
    n = -2 alpha and j0 = alpha - beta must be integers, n >= 0; the chain
    as (basis exponents, weights, a, b), or None."""
    n, j0 = -2 * Fraction(alpha), Fraction(alpha) - Fraction(beta)
    if n < 0 or n.denominator != 1 or j0.denominator != 1:
        return None
    n, j0 = int(n), int(j0)
    s = -n - j0
    exponents = list(range(j0, j0 + n + 1))
    weights = [2 * j + s - j0 for j in exponents]
    return exponents, weights, [j + s for j in exponents[:-1]], [j0 - j for j in exponents[1:]]


def test_extraction_matches_the_fraction_rule_at_denominators_1_to_6():
    # every alpha and beta p/q with q <= 6 and |p/q| <= 4: thirds and sixths
    # too, which the half-integer classification grid never reaches
    values = sorted({Fraction(p, q) for q in range(1, 7) for p in range(-4 * q, 4 * q + 1)})
    assert len(values) == 97
    denominators = set()
    for alpha in values:
        for beta in values:
            module = extract_finite_sl2_submodule(DensityRepSpec(alpha, beta))
            got = None if module is None else (module.basis_exponents, module.weights, module.a, module.b)
            assert got == fraction_rule_module(alpha, beta), (alpha, beta)
            if module is not None:
                denominators.add((alpha.denominator, beta.denominator))
    # a module needs 2 alpha and alpha - beta in Z, so beta's denominator
    # is alpha's, 1 or 2; both occur
    assert denominators == {(1, 1), (2, 2)}


@pytest.mark.parametrize(
    "grid, error, message",
    [
        (0, ValueError, r"^grid must be >= 1, got 0$"),
        (-2, ValueError, r"^grid must be >= 1, got -2$"),
        (True, TypeError, r"^grid must be an integer, got True$"),
        (8.0, TypeError, r"^grid must be an integer, got 8\.0$"),
        ("8", TypeError, r"^grid must be an integer, got '8'$"),
    ],
)
def test_classification_grid_checks_its_size_before_yielding(grid, error, message):
    # -2 gave an empty grid and True the grid of size 1 before the check
    rows = classification_grid(grid)
    with pytest.raises(error, match=message):
        next(rows)


def test_shift_isomorphism():
    assert shift_isomorphism_check(-1, -1, 5)
    assert shift_isomorphism_check(Fraction(1, 2), Fraction(-3, 2), -2)
    assert shift_isomorphism_check(0, 0, 0)


def without_beta(spec, i, terms):
    # rho(xi_i) z^j = (j + alpha*i) z^{i+j}: rho_{alpha,0}, which does not see beta
    return {(i + j,): (j + spec.alpha * i) * c for (j,), c in terms.items()}


def test_shift_check_catches_an_action_without_beta(plant_density):
    # shifting beta by m != 0 is no longer matched by shifting the exponent
    plant_density(lambda spec, i, p: LaurentPoly(1, without_beta(spec, i, p.terms)), "rho_apply")
    for m in (-5, -1, 1, 2, 5):
        assert shift_isomorphism_check(-1, -1, m) is False
        assert shift_isomorphism_check(Fraction(1, 2), Fraction(-3, 2), m) is False
    assert shift_isomorphism_check(-1, -1, 0) is True


def test_shift_check_applies_rho_once_per_index_to_the_whole_window(plant_density):
    # 2 * 7 calls, each on all 17 monomials z^-8..z^8 or their shifts;
    # one call per monomial and index made 238
    calls = []

    def recorded(spec, i, p):
        calls.append((spec.beta, i, sorted(j for (j,) in p.terms)))
        return rho_apply(spec, i, p)

    plant_density(recorded, "rho_apply")
    assert shift_isomorphism_check(-1, -1, 5)
    assert sorted(calls) == sorted(
        [(-1, i, list(range(-3, 14))) for i in range(-3, 4)] + [(4, i, list(range(-8, 9))) for i in range(-3, 4)]
    )


def test_fractional_shift_rejected():
    with pytest.raises(TypeError):
        shift_isomorphism_check(-1, -1, Fraction(1, 2))


def test_weight_spaces_one_dimensional():
    # rho(xi_0) acts diagonally with distinct eigenvalues j + beta.
    spec = DensityRepSpec(Fraction(-1, 2), Fraction(3, 2))
    seen = set()
    for j in range(-8, 9):
        image = rho_apply(spec, 0, zpow(j))
        assert set(image.terms) == {(j,)}
        weight = image.terms[(j,)]
        assert weight == j + spec.beta
        assert weight not in seen
        seen.add(weight)


def test_rho_apply_on_multi_term_inputs_term_by_term():
    # every output term is canonical, a nonzero int or a Fraction in lowest
    # terms whose denominator is not 1, equal to the two-operation formula
    # (j + alpha*i + beta) * c; a term whose multiplier vanishes is dropped
    rng = random.Random(5)
    dropped = negative = 0
    for _ in range(300):
        spec = DensityRepSpec(
            Fraction(rng.randint(-6, 6), rng.randint(1, 7)), Fraction(rng.randint(-6, 6), rng.randint(1, 7))
        )
        i = rng.randint(-4, 4)
        terms = {
            (rng.randint(-6, 6),): Fraction(rng.randint(-5, 5), rng.randint(1, 7))
            for _ in range(rng.randint(1, 6))
        }
        shift = spec.alpha * i + spec.beta
        if shift.denominator == 1:
            terms[(-int(shift),)] = Fraction(rng.choice((-3, -1, 2)), rng.randint(1, 7))
        p = LaurentPoly(1, terms)
        got = rho_apply(spec, i, p)
        expected = {}
        for (j,), c in p.terms.items():
            value = (j + spec.alpha * i + spec.beta) * c
            if value:
                expected[(i + j,)] = value
            else:
                assert (i + j,) not in got.terms
                dropped += 1
        assert got.terms == expected
        for c in got.terms.values():
            if type(c) is int:
                assert c != 0
            else:
                assert type(c) is Fraction and c.denominator > 1
                assert math.gcd(c.numerator, c.denominator) == 1
            negative += c < 0
        assert got == LaurentPoly(1, expected)
    assert dropped > 50 and negative > 300


def test_rho_apply_is_the_term_map_without_its_zeros():
    # rho_apply wraps the term map: a rank-1 LaurentPoly holding exactly
    # its nonzero entries, one key i + j per input term, the input kept
    rng = random.Random(13)
    vanished = fractions = 0
    for _ in range(300):
        spec = DensityRepSpec(
            Fraction(rng.randint(-6, 6), rng.randint(1, 7)), Fraction(rng.randint(-6, 6), rng.randint(1, 7))
        )
        i = rng.randint(-4, 4)
        terms = {
            (rng.randint(-6, 6),): Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 7))
            for _ in range(rng.randint(1, 6))
        }
        shift = spec.alpha * i + spec.beta
        if shift.denominator == 1:
            terms[(-int(shift),)] = Fraction(rng.choice((-3, -1, 2)), rng.randint(1, 7))
        p = LaurentPoly(1, terms)
        before = dict(p.terms)
        raw = rho_terms(spec, i, dict(p.terms))
        got = rho_apply(spec, i, p)
        assert type(got) is LaurentPoly and got.rank == 1
        assert got.terms == nonzero(raw) and raw.keys() == {(i + j,) for (j,) in p.terms}
        assert p.terms == before
        vanished += len(raw) - len(got.terms)
        fractions += sum(type(c) is Fraction for c in raw.values())
    assert vanished > 50 and fractions > 300


def test_a_plant_that_is_never_called_is_reported(monkeypatch):
    # the Lie-action check reads the term map, not rho_apply: a map planted
    # on rho_apply leaves its verdict True and is never called
    spec = DensityRepSpec(0, 1)
    plants = DensityPlants(monkeypatch)
    dead_seam = plants(lambda spec, i, p: zpow(0), "rho_apply")
    live = plants(rho_terms)
    assert verify_lie_action(spec, -2, 2, 1) is True
    assert (dead_seam.calls, live.calls) == (0, 9)
    assert plants.dead() == ["rho_apply = test_a_plant_that_is_never_called_is_reported.<locals>.<lambda>"]


@pytest.mark.parametrize("index", [Fraction(1, 2), 0.5, True, 1.0, Fraction(1)],
                         ids=["fraction", "float", "bool", "integral_float", "integral_fraction"])
def test_non_integer_index_rejected(index):
    # rho_apply skips key validation, so each was stored as an exponent
    # such as (5/2,) or (2.5,) before; True passed as 1.  The index 1 is
    # memoised first, so an equal-hashing index cannot reach the memo.
    spec = DensityRepSpec(Fraction(-1, 2), 0)
    assert rho_apply(spec, 1, zpow(2)) == zpow(3, Fraction(3, 2))
    with pytest.raises(TypeError, match=rf"^Witt index must be an integer, got {re.escape(repr(index))}$"):
        rho_apply(spec, index, zpow(2))


def test_int_subclass_index_accepted():
    class Index(int):
        pass

    spec = DensityRepSpec(Fraction(-1, 2), 0)
    got = rho_apply(spec, Index(1), zpow(2))
    assert got == zpow(3, Fraction(3, 2)) and [type(j) for (j,) in got.terms] == [int]


def off_by_one(spec, i, terms):
    # rho(xi_1) z^j = (j + alpha + beta + 1) z^{j+1}: not an action
    shift = spec.alpha * i + spec.beta + (1 if i == 1 else 0)
    return {(i + j,): (j + shift) * c for (j,), c in terms.items()}


def test_lie_action_check_catches_an_off_by_one_factor(plant_density):
    specs = [DensityRepSpec(a, b) for a, b in [(0, 0), (Fraction(1, 2), 0), (-1, -1), (2, 3)]]
    assert all(verify_lie_action(spec, -8, 8) for spec in specs)
    plant_density(off_by_one)
    assert not any(verify_lie_action(spec, -8, 8) for spec in specs)


def test_raising_chain_decides_irreducibility_above_dim_5():
    for two_alpha in range(-14, -9):
        alpha = Fraction(two_alpha, 2)
        module = extract_finite_sl2_submodule(DensityRepSpec(alpha, alpha))
        assert module.dim > 5
        assert check_irreducible(module)
    # a dim-7 module whose raising chain is cut between weights: span of the
    # top four basis vectors is invariant under e and f
    module = extract_finite_sl2_submodule(DensityRepSpec(-3, -3))
    module = FiniteSl2Module.unchecked(module.basis_exponents, module.weights, module.a, module.b)
    module.a[3] = Fraction(0)
    module.b[3] = Fraction(0)
    assert not check_irreducible(module)


@pytest.mark.parametrize("suite", ["rep-classification", "floer", "rep-action"])
def test_classification_suite_output_is_the_same_under_python_O(suite):
    # the sl2-module invariants are ValueErrors, not asserts, so -O keeps them
    def run(*flags):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "torusbv.cli", "verify", suite],
            capture_output=True,
        )
        return proc.returncode, proc.stdout

    plain = run()
    assert plain[0] == 0 and b"all passed" in plain[1]
    assert run("-O") == plain


def irreducible_brute_force(module):
    """Enumerate all proper nonzero spans of h-eigenvectors and test their
    invariance under e and f.  With distinct weights every invariant
    subspace is of this form; on the chain a span is invariant iff no
    nonzero a[t] leads out of it from x_t and no nonzero b[t] from x_{t+1}."""
    steps = [(t, t + 1) for t, v in enumerate(module.a) if v]
    steps += [(t + 1, t) for t, v in enumerate(module.b) if v]
    for size in range(1, module.dim):
        for subset in itertools.combinations(range(module.dim), size):
            inside = set(subset)
            if all(dst in inside for src, dst in steps if src in inside):
                return False
    return True


def test_irreducibility_matches_brute_force_on_every_zero_pattern():
    # V(n) with any of its 2n chain coefficients set to zero, n = 0..6
    patterns = 0
    for n in range(7):
        full = extract_finite_sl2_submodule(DensityRepSpec(Fraction(-n, 2), Fraction(-n, 2)))
        for zeros in itertools.product((False, True), repeat=2 * n):
            values = [Fraction(0) if z else v for z, v in zip(zeros, full.a + full.b)]
            module = FiniteSl2Module.unchecked(full.basis_exponents, full.weights, values[:n], values[n:])
            assert check_irreducible(module) is irreducible_brute_force(module)
            assert check_irreducible(module) is not any(zeros)
            patterns += 1
    assert patterns == 5461


def test_dim6_chain_with_one_zero_lowering_step_is_reducible():
    # f x_2 = 0 while e keeps the chain connected upwards: the span of
    # x_2, ..., x_5 is invariant under e, h and f
    full = extract_finite_sl2_submodule(DensityRepSpec(Fraction(-5, 2), Fraction(-5, 2)))
    assert full.dim == 6 and all(full.a)
    b = list(full.b)
    b[1] = Fraction(0)
    module = FiniteSl2Module.unchecked(full.basis_exponents, full.weights, full.a, b)
    assert not check_irreducible(module)
    assert not irreducible_brute_force(module)


# The two-call form of the Lie-action check, kept as an oracle: both orders
# of each composite are built from scratch, as stores, through
# `densityrep.rho_apply`, which reads the term map that a test plants, and
# subtraction is written as a + (-b) so that it does not go through
# SparseStore.__sub__.
def two_call_lie_action(spec, lo, hi, bracket_window):
    rho = densityrep.rho_apply
    window = range(-bracket_window, bracket_window + 1)
    for j in range(lo, hi + 1):
        zj = zpow(j)
        image = {k: rho(spec, k, zj) for k in range(-2 * bracket_window, 2 * bracket_window + 1)}
        for n in window:
            for m in window:
                lhs = image[n + m].scale(m - n)
                rhs = rho(spec, n, image[m]) + (-rho(spec, m, image[n]))
                if lhs != rhs:
                    return False
    return True


def rep_theory_grid_specs():
    # the benchmark's rep-theory grid: 2 alpha in [-8, 2], 2 beta in [-8, 8]
    return [
        DensityRepSpec(Fraction(two_alpha, 2), Fraction(two_beta, 2))
        for two_alpha in range(-8, 3)
        for two_beta in range(-8, 9)
    ]


def rep_action_suite_specs():
    rng = random.Random(2024)
    specs = [DensityRepSpec(0, 0), DensityRepSpec(Fraction(1, 2), 0)]
    for _ in range(10):
        specs.append(
            DensityRepSpec(Fraction(rng.randint(-8, 8), 2), Fraction(rng.randint(-8, 8), 2))
        )
    return specs


def wrong_off_unit_coefficients(spec, i, terms):
    # c -> c^2: right on coefficients 0 and 1 only, so right on every
    # monomial z^j and wrong on most composites
    return {(i + j,): (j + spec.alpha * i + spec.beta) * c * c for (j,), c in terms.items()}


def doubled(terms):
    return {key: 2 * c for key, c in terms.items()}


def right_on_every_monomial(rho, spec, i, j):
    """rho(xi_i) z^j under the map rho equals the term map's, zeros aside."""
    return nonzero(rho(spec, i, {(j,): 1})) == nonzero(rho_terms(spec, i, {(j,): 1}))


def wrong_for_one_order():
    """The term map, except that the outer factor of rho(xi_n) rho(xi_m) z^j
    is doubled when n > m and right when n <= m.  Each result remembers the
    index that made it (the dict is kept alive, so its id is not reused)."""
    made_by = {}

    def rho(spec, i, terms):
        out = exact_terms(spec, i, terms)
        inner = made_by.get(id(terms))
        if inner is not None and i > inner[1]:
            out = doubled(out)
        made_by[id(out)] = (out, i)
        return out

    return rho


@pytest.mark.parametrize("specs, lo, hi, window", [
    (rep_theory_grid_specs(), -2, 2, 1),
    (rep_action_suite_specs(), -8, 8, 3),
], ids=["rep_theory_grid", "rep_action_specs"])
def test_lie_action_matches_two_call_oracle(specs, lo, hi, window):
    for spec in specs:
        assert verify_lie_action(spec, lo, hi, window) is two_call_lie_action(spec, lo, hi, window) is True


@pytest.mark.parametrize(
    "mutant", [lambda: wrong_off_unit_coefficients, wrong_for_one_order], ids=["off_unit", "one_order"]
)
def test_lie_action_check_catches_composite_only_faults(plant_density, mutant):
    specs = rep_action_suite_specs()[:6] + [DensityRepSpec(-1, -1), DensityRepSpec(2, 3)]
    for spec in specs:
        for check in (verify_lie_action, two_call_lie_action):
            rho = mutant()
            # right on every monomial, so every single image is right
            for i in range(-3, 4):
                for j in range(-3, 4):
                    assert right_on_every_monomial(rho, spec, i, j)
            plant_density(rho)
            assert check(spec, -3, 3, 2) is False


@pytest.mark.parametrize("lo, hi, window, calls", [(0, 0, 2, 27), (-2, 2, 1, 9), (-8, 8, 3, 53)])
def test_lie_action_makes_one_rho_call_per_composite(plant_density, lo, hi, window, calls):
    # (4W - 1) + 2W(2W + 1) applications of the term map, with W = window,
    # on a range of 1, 5 or 17 monomials: the images of the window sum at
    # |k| <= 2W - 1 and the composites with n != m, whatever the range
    counted = plant_density(rho_terms)
    assert verify_lie_action(DensityRepSpec(Fraction(-3, 2), Fraction(1, 2)), lo, hi, window)
    assert counted.calls == calls == 4 * window**2 + 6 * window - 1


@pytest.mark.parametrize("specs, lo, hi, window", [
    (rep_theory_grid_specs(), -2, 2, 1),
    (rep_action_suite_specs(), -8, 8, 3),
], ids=["rep_theory_grid", "rep_action_specs"])
def test_lie_action_applies_the_term_map_and_builds_no_store(monkeypatch, plant_density, specs, lo, hi, window):
    # window, images and composites are term dicts: neither store
    # constructor runs, and each check applies the term map 4W^2 + 6W - 1
    # times
    def refuse(*args):
        raise AssertionError("store built in the Lie-action check")

    counted = plant_density(rho_terms)
    monkeypatch.setattr(SparseStore, "_raw", classmethod(refuse))
    monkeypatch.setattr(SparseStore, "__init__", refuse)
    assert all(verify_lie_action(spec, lo, hi, window) is True for spec in specs)
    assert counted.calls == len(specs) * (4 * window**2 + 6 * window - 1)


def test_src_holds_one_copy_of_the_density_formula():
    # the numerator (s_n + j s_d) c_n of rho(xi_i) on c z^j is written once
    src = Path(densityrep.__file__).parent
    assert sum(path.read_text().count("(s_n + j * s_d)") for path in src.glob("*.py")) == 1


def test_lie_action_check_uses_no_store_arithmetic(monkeypatch):
    # the comparison reads coefficients only; the two-call oracle above
    # keeps its a + (-b) store arithmetic, so the two share no comparison code
    def refuse(*args):
        raise AssertionError("store arithmetic in the Lie-action check")

    for name in ("scale", "__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(SparseStore, name, refuse)
    assert all(verify_lie_action(spec, -2, 2, 1) is True for spec in rep_theory_grid_specs())


STRAY = (10**6,)  # a key no right image or composite in these windows holds


def with_stray_term(side):
    """The term map, plus the term z^(10^6) on one side of each comparison:
    on every image rho(xi_k) z^j ("image"), on the images at |k| = 3 alone
    ("edge"; at window 2 these are only ever the scaled side, never an
    inner factor, so no composite holds the stray key), or on a composite
    rho(xi_n) rho(xi_m) z^j only when the outer index n is above ("above")
    or below ("below") the inner one m, so only one of the two composites
    of a pair holds the stray key.  Results remember the index that made
    them, as in `wrong_for_one_order`."""
    made_by = {}

    def rho(spec, i, terms):
        out = exact_terms(spec, i, terms)
        inner = made_by.get(id(terms))
        if inner is None:
            stray = side == "image" or (side == "edge" and abs(i) == 3)
        else:
            stray = side == ("above" if i > inner[1] else "below" if i < inner[1] else None)
        if stray:
            out = {**out, STRAY: Fraction(1)}
        made_by[id(out)] = (out, i)
        return out

    return rho


@pytest.mark.parametrize("side", ["image", "edge", "above", "below"])
def test_lie_action_check_catches_a_term_under_a_key_one_side_holds(plant_density, side):
    specs = rep_action_suite_specs()[:6] + [DensityRepSpec(-1, -1), DensityRepSpec(2, 3)]
    for spec in specs:
        assert verify_lie_action(spec, -3, 3, 2) is True
    for spec in specs:
        for check in (verify_lie_action, two_call_lie_action):
            plant_density(with_stray_term(side))
            assert check(spec, -3, 3, 2) is False


def in_another_rank(side):
    """The term map, except that on one side of the comparisons, the images
    rho(xi_k) z^j ("image") or the composites ("composite"), every result
    is written under rank-2 keys (j, 0).  An input is read by the first
    entry of each key, so the wrong images still make the right
    composites."""
    made_by = {}

    def rho(spec, i, terms):
        out = exact_terms(spec, i, {key[:1]: c for key, c in terms.items()})
        if (id(terms) in made_by) == (side == "composite"):
            out = {key + (0,): c for key, c in out.items()}
        made_by[id(out)] = out
        return out

    return rho


# each spec with a monomial z^j that one of its images rho(xi_k) z^j, |k| <= 3, kills
SPECS_WITH_A_VANISHING_IMAGE = [
    (DensityRepSpec(-1, -1), 0), (DensityRepSpec(Fraction(-3, 2), Fraction(1, 2)), 1), (DensityRepSpec(0, 0), 0)
]


@pytest.mark.parametrize("side", ["image", "composite"], ids=["image-rank", "composite-rank"])
def test_lie_action_check_rejects_results_of_another_rank_or_type(plant_density, side):
    # the wrong results hold the right coefficients under keys of another
    # length.  A term dict has no store type, so the type cases went with
    # the stores; `test_rho_apply_is_the_term_map_without_its_zeros` pins
    # the store that rho_apply builds
    for spec, _ in SPECS_WITH_A_VANISHING_IMAGE:
        rho = in_another_rank(side)
        for i in range(-3, 4):
            for j in range(-3, 4):
                assert {key[:1]: c for key, c in rho(spec, i, {(j,): 1}).items()} == nonzero(
                    rho_terms(spec, i, {(j,): 1}))
        plant_density(in_another_rank(side))
        assert verify_lie_action(spec, -3, 3, 2) is False
        plant_density(rho_terms)
        assert verify_lie_action(spec, -3, 3, 2) is True


def doubled_on_monomials_at(reach_edge):
    """The term map, except that rho(xi_k) z^j is doubled for
    |k| = reach_edge when its input was not made by this map: on the
    images, not on the composites, whatever the input's coefficients.
    Each result is remembered by id, as in `wrong_for_one_order`."""
    made_by = {}

    def rho(spec, i, terms):
        out = exact_terms(spec, i, terms)
        if abs(i) == reach_edge and id(terms) not in made_by:
            out = doubled(out)
        made_by[id(out)] = out
        return out

    return rho


def doubled_on_composites_of(pair):
    """The term map, except that the composites rho(xi_n) rho(xi_m) z^j and
    rho(xi_m) rho(xi_n) z^j of the one pair {n, m} are doubled.  Each result
    remembers the index that made it, as in `wrong_for_one_order`."""
    made_by = {}

    def rho(spec, i, terms):
        out = exact_terms(spec, i, terms)
        inner = made_by.get(id(terms))
        if inner is not None and {inner[1], i} == set(pair):
            out = doubled(out)
        made_by[id(out)] = (out, i)
        return out

    return rho


@pytest.mark.parametrize("window", [1, 2, 3])
def test_lie_action_reach_covers_every_compared_sum(plant_density, window):
    # The images stop at |k| = 2W - 1, the largest |n + m| over n < m in the
    # window; a fault in an image there, or in a composite of the extreme
    # pair (-W, W), must still be caught.
    spec = DensityRepSpec(Fraction(-3, 2), Fraction(1, 2))
    assert verify_lie_action(spec, -3, 3, window)
    edge = doubled_on_monomials_at(2 * window - 1)
    for i in range(-2 * window, 2 * window + 1):
        for j in range(-3, 4):
            right = nonzero(rho_terms(spec, i, {(j,): 1}))
            assert edge(spec, i, {(j,): 1}) == (doubled(right) if abs(i) == 2 * window - 1 else right)
    for mutant in (edge, doubled_on_composites_of((-window, window))):
        plant_density(mutant)
        assert verify_lie_action(spec, -3, 3, window) is False


# The monomial-by-monomial walk that the window check replaced, kept as an
# oracle: one z^j at a time, its images at |k| <= 2W - 1 and the composites
# of each pair n < m, compared on their terms by the same
# `_is_scaled_difference`, all as stores through `densityrep.rho_apply`,
# which reads the term map that a test plants.
def per_monomial_lie_action(spec, lo, hi, bracket_window):
    rho = densityrep.rho_apply
    pairs = list(itertools.combinations(range(-bracket_window, bracket_window + 1), 2))
    for j in range(lo, hi + 1):
        zj = zpow(j)
        image = {k: rho(spec, k, zj) for k in range(1 - 2 * bracket_window, 2 * bracket_window)}
        for n, m in pairs:
            a, b = rho(spec, n, image[m]), rho(spec, m, image[n])
            if not densityrep._is_scaled_difference(a.terms, b.terms, image[n + m].terms, m - n):
                return False
    return True


def wrong_on_monomial(target):
    """The term map, except that every rho(xi_i) sends z^target to
    (target + alpha*i + beta + 1) z^(target+i): a linear map that is wrong
    on the one monomial z^target and right on every other."""

    def rho(spec, i, terms):
        out = rho_terms(spec, i, terms)
        c = terms.get((target,))
        if c is not None:
            out[(target + i,)] += c
        return out

    return rho


def test_lie_action_check_catches_a_fault_on_one_interior_monomial(plant_density):
    # the window sums the images of z^-3, ..., z^3; a fault on z^0 alone
    # sits at one key of each image and must not be lost among the others
    rho = wrong_on_monomial(0)
    specs = rep_action_suite_specs()[:6] + [DensityRepSpec(-1, -1), DensityRepSpec(2, 3)]
    for spec in specs:
        for i in range(-3, 4):
            for j in range(-3, 4):
                assert right_on_every_monomial(rho, spec, i, j) is (j != 0)
        assert verify_lie_action(spec, -3, 3, 2) is True
    plant_density(rho)
    for spec in specs:
        assert verify_lie_action(spec, -3, 3, 2) is False


# every mutant of this file, as a factory of fresh (stateful) maps
LIE_MUTANTS = {
    "exact": lambda: rho_terms,
    "off_by_one": lambda: off_by_one,
    "without_beta": lambda: without_beta,
    "off_unit": lambda: wrong_off_unit_coefficients,
    "one_order": wrong_for_one_order,
    **{f"stray_{side}": functools.partial(with_stray_term, side) for side in ("image", "edge", "above", "below")},
    **{f"rank_{side}": functools.partial(in_another_rank, side) for side in ("image", "composite")},
    "edge_image": lambda: doubled_on_monomials_at(3),
    "edge_pair": lambda: doubled_on_composites_of((-2, 2)),
    "interior": lambda: wrong_on_monomial(0),
}


@pytest.mark.parametrize("specs, lo, hi, window", [
    (rep_theory_grid_specs(), -2, 2, 1),
    (rep_action_suite_specs(), -8, 8, 3),
], ids=["rep_theory_grid", "rep_action_specs"])
def test_lie_action_matches_the_per_monomial_walk(specs, lo, hi, window):
    for spec in specs:
        assert verify_lie_action(spec, lo, hi, window) is per_monomial_lie_action(spec, lo, hi, window) is True


@pytest.mark.parametrize("mutant", LIE_MUTANTS)
def test_lie_action_matches_the_per_monomial_walk_under_mutants(plant_density, mutant):
    specs = rep_action_suite_specs()[:6] + [DensityRepSpec(-1, -1), DensityRepSpec(2, 3)]
    verdicts = set()
    for spec in specs:
        for lo, hi, window in [(-3, 3, 2), (-2, 2, 1), (0, 0, 2)]:
            got = []
            for check in (verify_lie_action, per_monomial_lie_action):
                plant_density(LIE_MUTANTS[mutant]())
                got.append(check(spec, lo, hi, window))
            assert got[0] is got[1], (spec, lo, hi, window)
            verdicts.add(got[0])
    # rho_{alpha,0} is an action too; every other mutant is caught somewhere
    assert (False in verdicts) is (mutant not in ("exact", "without_beta"))


def test_density_checks_build_no_fraction(monkeypatch):
    # the windows are scaled by D^2 (Lie action) and D (shift), with D the
    # spec's denominator, so every image and composite is an int; the
    # extraction reads the spec's ints
    def refuse(*args):
        raise AssertionError("Fraction built on the density path")

    grid, suite = rep_theory_grid_specs(), rep_action_suite_specs()
    monkeypatch.setattr(densityrep, "Fraction", refuse)
    assert all(verify_lie_action(spec, -2, 2, 1) for spec in grid)
    assert all(verify_lie_action(spec, -8, 8, 3) for spec in suite)
    # the triples of test_shift_isomorphism
    assert shift_isomorphism_check(-1, -1, 5)
    assert shift_isomorphism_check(Fraction(1, 2), Fraction(-3, 2), -2)
    assert shift_isomorphism_check(0, 0, 0)
    modules = [extract_finite_sl2_submodule(spec) for spec in grid + suite]
    assert sum(module is not None for module in modules) == 77 + 4


@pytest.mark.parametrize("side", ["image", "composite"])
def test_lie_action_matches_the_per_monomial_walk_on_zero_results_of_another_rank(plant_density, side):
    # one-monomial windows, where results vanish.  A term dict has no rank,
    # so a zero is a zero under any keys: the rank mutant goes unseen
    # exactly where every image rho(xi_k) z^j, |k| <= 3, vanishes (rho_{0,0}
    # at z^0), and is caught at every other monomial, those where one image
    # vanishes included
    for spec, zero_at in SPECS_WITH_A_VANISHING_IMAGE:
        assert any(not nonzero(rho_terms(spec, k, {(zero_at,): 1})) for k in range(-3, 4))
        verdicts, silent = {}, {}
        for lo in range(-3, 4):
            silent[lo] = not any(nonzero(rho_terms(spec, k, {(lo,): 1})) for k in range(-3, 4))
            got = []
            for check in (verify_lie_action, per_monomial_lie_action):
                plant_density(in_another_rank(side))
                got.append(check(spec, lo, lo, 2))
            assert got[0] is got[1], (spec, lo)
            verdicts[lo] = got[0]
        assert verdicts == silent and list(silent.values()).count(True) == (spec.alpha == spec.beta == 0)


def test_vacuous_lie_action_check_raises(plant_density):
    spec = DensityRepSpec(0, 0)
    with pytest.raises(ValueError, match=r"^hi - lo \+ 1 must be >= 1, got -2$"):
        verify_lie_action(spec, 5, 2)
    # at window 0 only [xi_0, xi_0] = 0 would be checked, which any map
    # passes; this one fails at window 1
    plant_density(lambda spec, i, terms: {(7,): 11})
    assert verify_lie_action(spec, -2, 2, 1) is False
    for window in (0, -1):
        with pytest.raises(ValueError, match=rf"^bracket_window must be >= 1, got {window}$"):
            verify_lie_action(spec, -2, 2, window)


@pytest.mark.parametrize("lo, hi, message", [
    (True, 2, "lo must be an integer, got True"),
    (False, 2, "lo must be an integer, got False"),
    (-2, True, "hi must be an integer, got True"),
    (Fraction(-2), 2, r"lo must be an integer, got Fraction\(-2, 1\)"),
    (-2, 2.0, r"hi must be an integer, got 2\.0"),
])
def test_lie_action_range_must_be_int(lo, hi, message):
    # a True lo read as 1 started the walk at z^1, and the check passed
    with pytest.raises(TypeError, match=f"^{message}$"):
        verify_lie_action(DensityRepSpec(0, 0), lo, hi, 1)


def test_vacuous_shift_check_raises():
    with pytest.raises(TypeError, match="shift must be an integer, got True"):
        shift_isomorphism_check(-1, -1, True)


def test_spec_parameters_are_read_only():
    spec = DensityRepSpec(Fraction(-3, 2), Fraction(5, 7))
    for name in ("alpha", "beta"):
        with pytest.raises(AttributeError):
            setattr(spec, name, 0)
    assert (spec.alpha, spec.beta) == (Fraction(-3, 2), Fraction(5, 7))
    for i in range(-6, 7):
        assert rho_apply(spec, i, zpow(0)).terms == {(i,): spec.alpha * i + spec.beta}


@pytest.mark.parametrize("basis, weights, a, b, message", [
    ([0, 1], [-1, 1], [1, 1], [1], r"^2 basis vectors need 2 weights and 1 values each of a and b, got 2, 2 and 1$"),
    ([0, 1, 2], [-1, 1], [1], [1], r"^3 basis vectors need 3 weights and 2 values each of a and b, got 2, 1 and 1$"),
    ([], [], [], [], r"^a weight chain needs at least one basis vector$"),
    # [e, f] = h holds here, but the weights run downwards along the chain
    ([0, 1], [1, -1], [1], [-1], r"^h weights must be -n, -n\+2, \.\.\., n in chain order$"),
    ([0, 1, 2], [-2, 0, 4], [2, 1], [1, 2], r"^h weights must be -n, -n\+2, \.\.\., n in chain order$"),
    ([0, 1], [-1, 1], [1], [2], r"^\[e, f\] != h$"),
    ([0, 1, 2], [-2, 0, 2], [2, 1], [1, 1], r"^\[e, f\] != h$"),
    # a valid V(1) but for its basis: x_0 and x_1 would be the same monomial
    ([0, 0], [-1, 1], [1], [1], r"^basis exponents must be distinct, got \[0, 0\]$"),
], ids=["long_a", "short_weights", "empty", "descending", "gap", "ef_scalar", "ef_middle", "repeated_basis"])
def test_chain_invariants_raise_value_error(basis, weights, a, b, message):
    with pytest.raises(ValueError, match=message):
        FiniteSl2Module(basis, weights, a, b)
    # the same chain is accepted, unchecked, as a fixture
    assert FiniteSl2Module.unchecked(basis, weights, a, b).a == a


def _one_entry_not_int(field, bad):
    """V(2), or V(1) for True, which stands for 1, with bad in place of the
    first entry of `field` equal to it, so that only its type is wrong."""
    chain = {"basis_exponents": [0, 1], "weights": [-1, 1], "a": [1], "b": [1]} if bad is True else {
        "basis_exponents": [0, 1, 2], "weights": [-2, 0, 2], "a": [2, 1], "b": [1, 2]}
    values = chain[field]
    values[values.index(int(bad))] = bad
    return chain


@pytest.mark.parametrize("field, chain, bad", [
    pytest.param("weights", {"basis_exponents": [0, 1], "weights": [Fraction(-1, 2), Fraction(1, 2)], "a": [1],
                             "b": [1]}, Fraction(-1, 2), id="half_integer"),
    *(
        pytest.param(field, _one_entry_not_int(field, bad), bad, id=f"{field}_{kind}")
        for field in ("basis_exponents", "weights", "a", "b")
        for kind, bad in [("fraction", Fraction(2)), ("float", 2.0), ("bool", True), ("string", "2")]
    ),
])
def test_chain_entries_must_be_ints(field, chain, bad):
    name = {"basis_exponents": "basis exponent", "weights": "h weight"}.get(field, field)
    with pytest.raises(TypeError, match=rf"^{name} must be an integer, got {re.escape(repr(bad))}$"):
        FiniteSl2Module(**chain)
    # the same chain is accepted, unchecked, as a fixture
    assert getattr(FiniteSl2Module.unchecked(**chain), field) == chain[field]


def test_repr_evaluates_back_to_the_same_chain():
    density = extract_finite_sl2_submodule(DensityRepSpec(-1, 0))
    assert repr(density) == (
        "FiniteSl2Module(basis_exponents=[-1, 0, 1], weights=[-2, 0, 2], a=[-2, -1], b=[-1, -2])"
    )
    for module in [density, *solve_forced_action(4)]:
        copy = eval(repr(module), {"FiniteSl2Module": FiniteSl2Module})
        assert (copy.basis_exponents, copy.weights, copy.a, copy.b) == (
            module.basis_exponents, module.weights, module.a, module.b)


def test_dense_views_are_built_fresh_and_cannot_be_set():
    module = extract_finite_sl2_submodule(DensityRepSpec(-1, 0))
    assert module.basis_exponents == [-1, 0, 1]
    assert (module.a, module.b, module.weights) == ([-2, -1], [-1, -2], [-2, 0, 2])
    assert module.e == [[0, 0, 0], [-2, 0, 0], [0, -1, 0]]
    assert module.h == [[-2, 0, 0], [0, 0, 0], [0, 0, 2]]
    assert module.f == [[0, -1, 0], [0, 0, -2], [0, 0, 0]]
    module.e[1][0] = Fraction(5)
    assert module.e[1][0] == -2 and module.a == [-2, -1]
    for name in ("e", "h", "f", "dim"):
        with pytest.raises(AttributeError):
            setattr(module, name, None)


def test_extracted_chain_is_rho_on_every_basis_vector():
    # e = rho(xi_1), h = 2 rho(xi_0) and f = -rho(xi_{-1}) read off
    # rho_apply on each z^j of the basis, so the integer chain is checked
    # against the action; the rep-theory grid with beta shifted by each
    # integer in [-3, 3], which keeps existence and dimension
    modules = 0
    for beta_shift in range(-3, 4):
        for grid_spec in rep_theory_grid_specs():
            spec = DensityRepSpec(grid_spec.alpha, grid_spec.beta + beta_shift)
            module = extract_finite_sl2_submodule(spec)
            if module is None:
                continue
            modules += 1
            basis = module.basis_exponents
            for t, j in enumerate(basis):
                up = zpow(basis[t + 1], module.a[t]) if t + 1 < module.dim else LaurentPoly.zero(1)
                down = zpow(basis[t - 1], module.b[t - 1]) if t > 0 else LaurentPoly.zero(1)
                assert rho_apply(spec, 1, zpow(j)) == up
                assert rho_apply(spec, 0, zpow(j)).scale(2) == zpow(j, module.weights[t])
                assert rho_apply(spec, -1, zpow(j)).scale(-1) == down
            assert all(type(v) is int for v in module.weights + module.a + module.b)
    assert modules == 7 * 77


def dense_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def dense_casimir(module):
    """ef + fe + h^2/2 as a dense matrix."""
    e, h, f = module.e, module.h, module.f
    ef, fe, hh = dense_product(e, f), dense_product(f, e), dense_product(h, h)
    return [[x + y + Fraction(z, 2) for x, y, z in zip(*rows)] for rows in zip(ef, fe, hh)]


def test_chain_modules_satisfy_the_dense_sl2_relations():
    # the dense commutator form of the relations the chain checks in
    # closed form, and ef + fe + h^2/2 against the chain's Casimir scalar
    # n(n+2)/2 times the identity, an int exactly when it is integral, on
    # every finite submodule of the rep-theory grid and on V(1)..V(8) of
    # the forced Floer action
    modules = [extract_finite_sl2_submodule(spec) for spec in rep_theory_grid_specs()]
    modules = [m for m in modules if m is not None]
    for n in range(1, 9):
        modules += solve_forced_action(n)
    assert len(modules) == 77 + 8

    def commutator(a, b):
        return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(dense_product(a, b), dense_product(b, a))]

    for module in modules:
        e, h, f = module.e, module.h, module.f
        assert commutator(h, e) == [[2 * x for x in row] for row in e]
        assert commutator(h, f) == [[-2 * x for x in row] for row in f]
        assert commutator(e, f) == h
        n, c = module.dim - 1, module.casimir()
        assert (c, type(c)) == (Fraction(n * (n + 2), 2), Fraction if n % 2 else int)
        assert dense_casimir(module) == [[c if j == i else 0 for j in range(module.dim)] for i in range(module.dim)]
