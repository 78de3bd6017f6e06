import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from torusbv import cocycle, suites
from torusbv.bvalgebra import PolyVector, bv_delta, gerstenhaber_bracket
from torusbv.cocycle import (
    CE1Cochain,
    _ce_residual,
    ce_differential_check,
    is_cocycle_on_window,
    module_action,
    witt_basis,
)
from torusbv.densityrep import DensityRepSpec, rho_apply
from torusbv.laurent import LaurentPoly, RankMismatchError
from torusbv.parsing import parse_cochain_spec


def xi(n):
    return PolyVector.xi(1, (n,), 1)


def zpow(n, coeff=1):
    return LaurentPoly(1, {(n,): coeff})


def test_bv_part_evaluation():
    # alpha=1: xi_n maps to n z^n.
    psi = CE1Cochain(1, alpha=1)
    for n in range(-3, 4):
        assert psi(xi(n)) == zpow(n, n)


def test_log_part_evaluation():
    # beta=1: xi_n maps to z^{-1}[xi_n, z] = z^n.
    psi = CE1Cochain(1, betas=[1])
    for n in range(-3, 4):
        assert psi(xi(n)) == zpow(n)


def test_exact_part_evaluation():
    # g = z: xi_0 maps to [xi_0, z] = z.
    psi = CE1Cochain(1, exact_part=zpow(1))
    assert psi(xi(0)) == zpow(1)


def test_bv_cochain_is_cocycle():
    psi = CE1Cochain(1, alpha=1)
    for n in range(-3, 4):
        for m in range(-3, 4):
            assert ce_differential_check(psi, xi(n), xi(m)).is_zero()


def test_log_cochain_is_cocycle():
    psi = CE1Cochain(1, betas=[1])
    for n in range(-3, 4):
        for m in range(-3, 4):
            assert ce_differential_check(psi, xi(n), xi(m)).is_zero()


def test_coboundaries_are_cocycles():
    psi = CE1Cochain(1, exact_part=zpow(2, Fraction(3, 2)) + zpow(-1))
    assert is_cocycle_on_window(psi, 1, 3)


def test_zero_cochain_is_cocycle():
    assert is_cocycle_on_window(CE1Cochain(1), 1, 3)


def test_family_is_cocycle_window4():
    for alpha, beta in [(1, 0), (0, 1), (Fraction(-1, 2), Fraction(3, 2)), (2, -3)]:
        psi = CE1Cochain(1, alpha=alpha, betas=[beta])
        assert is_cocycle_on_window(psi, 1, 4)


def test_rank2_log_cocycles():
    psi = CE1Cochain(2, betas=[1, Fraction(-1, 2)])
    assert is_cocycle_on_window(psi, 2, 2)


def test_window_check_rejects_vacuous_rank():
    # rank 0 has an empty Witt basis, so the check would pass on nothing
    with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
        is_cocycle_on_window(lambda x: None, 0, 2)


def test_engineered_non_cocycle_fails():
    # psi(xi_n) = n^2 z^n fails on the pair (xi_1, xi_-1):
    # psi([xi_1, xi_-1]) = psi(-2 xi_0) = 0, but
    # xi_1.psi(xi_-1) - xi_-1.psi(xi_1) = [xi_1, z^-1] - [xi_-1, z] = -2.
    def psi(x):
        out = LaurentPoly.zero(1)
        for ((n,), wdg), coeff in x.terms.items():
            assert wdg == (1,)
            out = out + zpow(n, coeff * n * n)
        return out

    value = ce_differential_check(psi, xi(1), xi(-1))
    assert value == LaurentPoly(1, {(0,): 2})
    assert not is_cocycle_on_window(psi, 1, 2)


def test_module_action_is_bracket():
    assert module_action(xi(2), zpow(3)) == zpow(5, 3)


def test_witt_basis_size():
    assert len(list(witt_basis(1, 4))) == 9
    assert len(list(witt_basis(2, 2))) == 50


@pytest.mark.parametrize(
    "rank, window, error, message",
    [
        (0, 1, ValueError, r"^rank must be >= 1, got 0$"),
        (-1, 1, ValueError, r"^rank must be >= 1, got -1$"),
        (1, 0, ValueError, r"^window must be >= 1, got 0$"),
        (2, -2, ValueError, r"^window must be >= 1, got -2$"),
        (True, 1, TypeError, r"^rank must be an integer, got True$"),
        (1, True, TypeError, r"^window must be an integer, got True$"),
        (1.0, 1, TypeError, r"^rank must be an integer, got 1\.0$"),
        (1, Fraction(2), TypeError, r"^window must be an integer, got Fraction\(2, 1\)$"),
    ],
)
def test_witt_basis_checks_its_sizes_before_yielding(rank, window, error, message):
    # each was an empty basis, or a bool was read as 1, before the check
    basis = witt_basis(rank, window)
    with pytest.raises(error, match=message):
        next(basis)


def test_parse_cochain_spec():
    psi = parse_cochain_spec("alpha=-1/2,beta=[-1/2],g=0", 1)
    assert psi.alpha == Fraction(-1, 2)
    assert psi.betas == [Fraction(-1, 2)]
    expected = CE1Cochain(1, alpha=Fraction(-1, 2), betas=[Fraction(-1, 2)])
    for n in range(-2, 3):
        assert psi(xi(n)) == expected(xi(n))


def test_cochain_rank_validation():
    with pytest.raises(ValueError):
        CE1Cochain(2, betas=[1])
    # the error module_action raises too; a ValueError, so the CLI exits 2
    with pytest.raises(RankMismatchError, match="rank 2 argument for rank 1 cochain"):
        CE1Cochain(1, alpha=1).evaluate(PolyVector.xi(2, (0, 0), 1))
    with pytest.raises(RankMismatchError, match="rank 1 exact part for rank 2 cochain"):
        CE1Cochain(2, exact_part=LaurentPoly.monomial(1, (0,)))


def test_a_function_that_is_not_a_laurent_poly_raises():
    # a degree-0 PolyVector has keys (n, ()), so reading k[i] off them gave
    # 0, a malformed LaurentPoly or an untyped error before
    x, y = PolyVector.xi(2, (1, 0), 2), PolyVector.xi(2, (0, 1), 2)
    f = PolyVector(2, {((0, 1), ()): 1})
    assert module_action(x, f.degree0_to_laurent()) == LaurentPoly(2, {(1, 1): 1})
    with pytest.raises(TypeError, match=r"^function must be a LaurentPoly, got PolyVector$"):
        module_action(x, f)
    with pytest.raises(TypeError, match=r"^exact part must be a LaurentPoly, got PolyVector$"):
        CE1Cochain(2, exact_part=f)
    with pytest.raises(TypeError, match=r"^psi\(x\) must be a LaurentPoly, got PolyVector$"):
        ce_differential_check(bv_delta, x, y)
    with pytest.raises(TypeError, match=r"^psi\(x\) must be a LaurentPoly, got PolyVector$"):
        is_cocycle_on_window(bv_delta, 2, 1)
    # each value of psi is checked: psi(y) alone, and psi([x,y]) alone
    zero = LaurentPoly.zero(2)
    with pytest.raises(TypeError, match=r"^psi\(y\) must be a LaurentPoly, got PolyVector$"):
        ce_differential_check(lambda v: f if v == y else zero, x, y)
    with pytest.raises(TypeError, match=r"^psi\(\[x,y\]\) must be a LaurentPoly, got PolyVector$"):
        ce_differential_check(lambda v: zero if v in (x, y) else f, x, y)


def test_each_value_of_psi_is_checked_once(monkeypatch):
    """The window check types psi once per basis field, where it evaluates
    it, and psi([x,y]) once per pair: at rank 2, window 2, 50 fields and
    1225 pairs, where checking psi(x) and psi(y) on every pair took 3675."""
    checked = Counter()
    real = cocycle._require_function

    def counting(what, m):
        checked[what] += 1
        real(what, m)

    monkeypatch.setattr(cocycle, "_require_function", counting)
    assert is_cocycle_on_window(CE1Cochain(2, alpha=1, betas=[1, -1]), 2, 2)
    assert checked == {"psi(x)": 50, "psi([x,y])": 1225}
    checked.clear()
    x, y = PolyVector.xi(2, (1, 0), 2), PolyVector.xi(2, (0, 1), 1)
    assert not ce_differential_check(CE1Cochain(2, alpha=1), x, y).terms
    assert checked == {"psi(x)": 1, "psi(y)": 1, "psi([x,y])": 1}


def test_parse_cochain_spec_rank2():
    psi = parse_cochain_spec("alpha=-1/2,beta=[1/3,-2],g=z1^2*z2^-1", 2)
    assert psi.alpha == Fraction(-1, 2)
    assert psi.betas == [Fraction(1, 3), Fraction(-2)]
    assert psi.exact_part == LaurentPoly(2, {(2, -1): 1})
    with pytest.raises(ValueError):
        parse_cochain_spec("beta=[1,2", 2)
    # commas inside a tuple exponent split no fields
    psi = parse_cochain_spec("alpha=1,g=z^(1,2)+z^(0,1),beta=[0,1]", 2)
    assert (psi.alpha, psi.betas) == (1, [0, 1])
    assert psi.exact_part == LaurentPoly(2, {(1, 2): 1, (0, 1): 1})


# Oracles: the action and the cochain family through the Gerstenhaber
# bracket, as the definitions x.m = [x, m] and
# alpha*Delta + sum_i beta_i z_i^{-1}[-, z_i] + [-, g] read.


def as_polyvector(m):
    return PolyVector(m.rank, {(e, ()): c for e, c in m.terms.items()})


def bracket_module_action(x, m):
    return gerstenhaber_bracket(x, as_polyvector(m)).degree0_to_laurent()


def bracket_cochain(psi, x):
    out = bv_delta(x).degree0_to_laurent().scale(psi.alpha)
    for i, beta in enumerate(psi.betas):
        unit = [int(j == i) for j in range(psi.rank)]
        z_i = LaurentPoly.monomial(psi.rank, unit)
        z_i_inverse = LaurentPoly.monomial(psi.rank, [-u for u in unit])
        out = out + (z_i_inverse * bracket_module_action(x, z_i)).scale(beta)
    if psi.exact_part is not None:
        out = out + bracket_module_action(x, psi.exact_part)
    return out


def random_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_laurent(rng, rank, max_terms=3):
    return LaurentPoly(rank, {
        tuple(rng.randint(-2, 2) for _ in range(rank)): random_fraction(rng)
        for _ in range(rng.randint(0, max_terms))
    })


def random_field(rng, rank):
    """A vector field plus, half the time, a function part (which acts by 0)."""
    terms = {
        (tuple(rng.randint(-2, 2) for _ in range(rank)), (rng.randint(1, rank),)): random_fraction(rng)
        for _ in range(rng.randint(1, 3))
    }
    if rng.random() < 0.5:
        terms[(tuple(rng.randint(-2, 2) for _ in range(rank)), ())] = random_fraction(rng)
    return PolyVector(rank, terms)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_module_action_matches_bracket_oracle(rank):
    rng = random.Random(700 + rank)
    for _ in range(200):
        x, m = random_field(rng, rank), random_laurent(rng, rank)
        assert module_action(x, m) == bracket_module_action(x, m)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_cochain_matches_bracket_oracle(rank):
    rng = random.Random(800 + rank)
    for _ in range(200):
        g = random_laurent(rng, rank) if rng.random() < 0.5 else None
        psi = CE1Cochain(rank, random_fraction(rng), [random_fraction(rng) for _ in range(rank)], g)
        x = random_field(rng, rank)
        assert psi(x) == bracket_cochain(psi, x)


def test_action_and_cochain_cancel_to_zero():
    # (theta_1 + theta_2) . z1 z2^-1 = (1 - 1) z1 z2^-1
    x = PolyVector.theta(2, 1) + PolyVector.theta(2, 2)
    m = LaurentPoly(2, {(1, -1): 3})
    assert module_action(x, m).is_zero() and bracket_module_action(x, m).is_zero()
    # psi(theta_1 + theta_2) = beta_1 + beta_2 = 0
    psi = CE1Cochain(2, alpha=5, betas=[1, -1])
    assert psi(x).is_zero() and bracket_cochain(psi, x).is_zero()
    # alpha n_i + beta_i = 0 on both terms, and the two brackets with a
    # nonzero g cancel
    psi = CE1Cochain(2, alpha=1, betas=[-3, 1], exact_part=LaurentPoly(2, {(1, 1): 2}))
    x = PolyVector.xi(2, (3, -1), 1) - PolyVector.xi(2, (3, -1), 2)
    assert psi(x).is_zero() and bracket_cochain(psi, x).is_zero()


def test_degree_2_input_raises_even_when_the_bracket_vanishes():
    # [theta_1 theta_2, 1] = 0, so the bracket oracle returns 0 here; the
    # action is defined on vector fields only and raises
    pv = PolyVector.monomial(2, (0, 0), (1, 2))
    assert bracket_module_action(pv, LaurentPoly.monomial(2, (0, 0))).is_zero()
    with pytest.raises(ValueError, match="degree-2"):
        module_action(pv, LaurentPoly.monomial(2, (0, 0)))
    with pytest.raises(ValueError, match="degree-2"):
        CE1Cochain(2)(pv + PolyVector.theta(2, 1))
    with pytest.raises(RankMismatchError):
        module_action(PolyVector.theta(2, 1), LaurentPoly.monomial(1, (0,)))


def test_density_action_is_module_action_twisted_by_cocycle():
    """rho_{alpha,beta}(xi_i) p = xi_i.p + psi(xi_i) p with
    psi = alpha*Delta + beta*z^{-1}[-, z]."""
    rng = random.Random(900)
    for _ in range(500):
        alpha, beta = random_fraction(rng), random_fraction(rng)
        i, p = rng.randint(-4, 4), random_laurent(rng, 1, 4)
        xi_i = PolyVector.xi(1, (i,), 1)
        twisted = module_action(xi_i, p) + CE1Cochain(1, alpha, [beta])(xi_i) * p
        assert rho_apply(DensityRepSpec(alpha, beta), i, p) == twisted


@pytest.mark.parametrize("rank, window", [(1, 4), (2, 2)])
def test_cocycle_suite_checks_module_action_against_the_bracket(monkeypatch, rank, window):
    def names(report):
        return {c["name"]: c["ok"] for c in report["checks"]}

    assert names(suites.cocycle_suite(rank, window))["module_action_is_bracket_action"] is True

    def n_for_k(x, m):
        # z^n theta_i . z^k = n_i z^{n+k}: the factor of the wrong side
        terms = {}
        for (n, w), c in x.terms.items():
            for k, d in m.terms.items():
                e = tuple(a + b for a, b in zip(n, k))
                terms[e] = terms.get(e, 0) + c * d * n[w[0] - 1]
        return LaurentPoly(x.rank, terms)

    monkeypatch.setattr(suites, "module_action", n_for_k)
    report = suites.cocycle_suite(rank, window)
    assert names(report)["module_action_is_bracket_action"] is False
    assert report["passed"] is False


# The CE differential as three stores composed, psi([x,y]) - x.psi(y) +
# y.psi(x): the oracle of the one-dict `ce_differential_check`.


def three_store_ce(cochain, x, y):
    return cochain(gerstenhaber_bracket(x, y)) - module_action(x, cochain(y)) + module_action(y, cochain(x))


def random_linear_cochain(rng, rank):
    """A linear map with a random Laurent image on each term z^n theta_i,
    drawn when the term is first met: in general not a cocycle."""
    images = {}

    def psi(x):
        out = LaurentPoly.zero(rank)
        for key, c in x.terms.items():
            if key[1]:
                if key not in images:
                    images[key] = random_laurent(rng, rank, 2)
                out = out + images[key].scale(c)
        return out

    return psi


def random_cochain(rng, rank):
    """A CE1Cochain with or without an exact part, the bracket-based
    `bracket_cochain` of one as a plain callable, or a random linear map."""
    kind = rng.randrange(3)
    if kind == 2:
        return random_linear_cochain(rng, rank)
    g = random_laurent(rng, rank) if rng.random() < 0.5 else None
    psi = CE1Cochain(rank, random_fraction(rng), [random_fraction(rng) for _ in range(rank)], g)
    return psi if kind == 0 else (lambda x: bracket_cochain(psi, x))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_ce_differential_matches_three_store_oracle(rank):
    rng = random.Random(1000 + rank)
    nonzero = 0
    for _ in range(75):
        psi = random_cochain(rng, rank)
        x, y = random_field(rng, rank), random_field(rng, rank)
        out = ce_differential_check(psi, x, y)
        assert out == three_store_ce(psi, x, y)
        nonzero += not out.is_zero()
    assert nonzero >= 10


def test_ce_differential_rejects_degree_2_and_rank_mismatch():
    pv = PolyVector.monomial(2, (1, 0), (1, 2))
    theta = PolyVector.theta(2, 1)
    with pytest.raises(ValueError, match="degree-2"):
        ce_differential_check(CE1Cochain(2, alpha=1), pv + theta, PolyVector.xi(2, (0, 1), 2))
    with pytest.raises(ValueError, match="degree-2"):
        ce_differential_check(lambda x: LaurentPoly.monomial(2, (1, 1)), theta, pv)
    with pytest.raises(RankMismatchError):
        ce_differential_check(lambda x: LaurentPoly.monomial(1, (1,)), theta, PolyVector.xi(2, (1, 0), 2))
    with pytest.raises(RankMismatchError):
        ce_differential_check(CE1Cochain(2, alpha=1), theta, PolyVector.theta(3, 1))


def test_window_check_evaluates_psi_once_per_field_and_once_per_pair():
    psi = CE1Cochain(2, alpha=1, betas=[1, -2], exact_part=LaurentPoly(2, {(1, -1): 3}))
    calls = []

    def counting(x):
        calls.append(x)
        return psi(x)

    basis = list(witt_basis(2, 1))
    assert len(basis) == 18
    assert is_cocycle_on_window(counting, 2, 1)
    assert len(calls) == 18 + 18 * 17 // 2
    assert calls[:18] == basis


def test_window_check_rejects_a_perturbation_on_the_last_basis_field():
    # psi differs from the BV cocycle on the last basis field only, where it
    # adds z1; no bracket of two basis fields equals that field, so only
    # the shared psi(x) of the field carries the change
    bv = CE1Cochain(2, alpha=1)
    last = list(witt_basis(2, 2))[-1]
    assert last == PolyVector.xi(2, (2, 2), 2)

    def perturbed(x):
        return bv(x) + LaurentPoly(2, {(1, 0): 1}) if x == last else bv(x)

    assert is_cocycle_on_window(bv, 2, 2)
    assert not is_cocycle_on_window(perturbed, 2, 2)


# The ordered walk over all B^2 basis pairs, diagonal included, with psi
# evaluated once per field: the oracle of the unordered window check, which
# needs psi linear and the bracket graded antisymmetric.


def ordered_is_cocycle_on_window(cochain, rank, window):
    basis = [(x, cochain(x)) for x in witt_basis(rank, window)]
    for x, psi_x in basis:
        for y, psi_y in basis:
            if any(_ce_residual(cochain, x, psi_x, y, psi_y).values()):
                return False
    return True


class _CochainsBuilt(Exception):
    """Raised at the cocycle suite's first module action, which follows its
    last window check; the suite builds no cochain after it."""


def _module_action_stops_the_suite(x, m):
    raise _CochainsBuilt


@pytest.mark.parametrize("rank, window", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_window_check_agrees_with_the_ordered_walk_on_the_suite_cochains(monkeypatch, rank, window):
    # every cochain the suite builds: the BV one, one logarithmic one per
    # z_i, the coboundary, the linear combination, the engineered
    # non-cocycle, which the suite checks at rank 1, window 2, and the
    # kernel's Delta read into functions, which it checks at window 2
    calls = []

    def recording(cochain, r, w):
        verdict = is_cocycle_on_window(cochain, r, w)
        calls.append((cochain, r, w, verdict))
        return verdict

    monkeypatch.setattr(suites, "is_cocycle_on_window", recording)
    monkeypatch.setattr(suites, "module_action", _module_action_stops_the_suite)
    with pytest.raises(_CochainsBuilt):
        suites.cocycle_suite(rank, window)
    assert len(calls) == rank + 5
    assert [verdict for *_, verdict in calls] == [True] * (rank + 3) + [False, True]
    assert calls[-1][1:3] == (rank, 2)
    for cochain, r, w, verdict in calls:
        assert ordered_is_cocycle_on_window(cochain, r, w) is verdict


def planted_delta(extra):
    """`bv_delta` with extra(n, i) * c z^n added for each degree-1 term
    c z^n theta_i; terms of other degrees keep the kernel's value."""

    def delta(x):
        terms = {}
        for (n, w), c in x.terms.items():
            if len(w) == 1:
                terms[n, ()] = terms.get((n, ()), 0) + extra(n, w[0]) * c
        return bv_delta(x) + PolyVector(x.rank, terms)

    return delta


def _exact_form_line(report):
    return {c["name"]: c["ok"] for c in report["checks"]}["bv_cocycle_identity_exact_form"]


@pytest.mark.parametrize("rank", [1, 2])
def test_exact_form_line_rejects_a_planted_delta(monkeypatch, rank):
    # n_i z^n becomes n_i^2 z^n on z^n theta_i: the engineered non-cocycle
    # at rank 1, and no cocycle at rank 2 either
    assert _exact_form_line(suites.cocycle_suite(rank, 1)) is True
    squared = planted_delta(lambda n, i: n[i - 1] * (n[i - 1] - 1))
    assert squared(PolyVector.xi(rank, (3,) * rank, 1)) == PolyVector(rank, {((3,) * rank, ()): 9})
    monkeypatch.setattr(suites, "bv_delta", squared)
    report = suites.cocycle_suite(rank, 1)
    assert _exact_form_line(report) is False
    assert report["passed"] is False


def test_delta_plus_a_log_cocycle_is_an_equivalent_mutant(monkeypatch):
    # Delta + z_1^{-1}[-, z_1] is a cocycle as well, so the identity holds
    # for it and the line cannot tell it from Delta: an equivalent mutant
    shifted = planted_delta(lambda n, i: 1 if i == 1 else 0)
    log = CE1Cochain(2, alpha=1, betas=[1, 0])
    for x in witt_basis(2, 1):
        assert shifted(x).degree0_to_laurent() == log(x)
    monkeypatch.setattr(suites, "bv_delta", shifted)
    report = suites.cocycle_suite(2, 1)
    assert _exact_form_line(report) is True
    assert report["passed"] is True


def test_window_check_agrees_with_the_ordered_walk_on_the_last_field_perturbation():
    # the perturbation applies to the last field only, not to its
    # multiples, so this psi is not linear: (xi_{(1,0),1}, xi_{(1,2),2})
    # brackets to the last field and the reversed pair to minus it, and
    # both walks must still reject it
    bv = CE1Cochain(2, alpha=1)
    last = list(witt_basis(2, 2))[-1]

    def perturbed(x):
        return bv(x) + LaurentPoly(2, {(1, 0): 1}) if x == last else bv(x)

    assert ordered_is_cocycle_on_window(perturbed, 2, 2) is is_cocycle_on_window(perturbed, 2, 2) is False


def fixed_linear_cochain(rng, rank, window):
    """A linear map given by one image per term z^n theta_i with
    ||n||_inf <= 2 window, which covers every basis field of the window and
    every bracket of two, all drawn before the map is called: the image of
    a seeded `CE1Cochain`, and on one term, half the time, that image plus
    a nonzero monomial."""
    g = random_laurent(rng, rank) if rng.random() < 0.5 else None
    base = CE1Cochain(rank, random_fraction(rng), [random_fraction(rng) for _ in range(rank)], g)
    images = {
        (n, (i,)): base(PolyVector.xi(rank, n, i))
        for n in product(range(-2 * window, 2 * window + 1), repeat=rank)
        for i in range(1, rank + 1)
    }
    if rng.random() < 0.5:
        key = rng.choice(sorted(images))
        exp = tuple(rng.randint(-2, 2) for _ in range(rank))
        images[key] = images[key] + LaurentPoly.monomial(rank, exp, rng.choice([-2, -1, 1, 3]))

    def psi(x):
        out = LaurentPoly.zero(rank)
        for key, c in x.terms.items():
            out = out + images[key].scale(c)
        return out

    return psi


def test_window_check_agrees_with_the_ordered_walk_on_seeded_linear_cochains():
    rng = random.Random(1100)
    verdicts = []
    for _ in range(120):
        rank, window = rng.choice([(1, 2), (2, 1)])
        psi = fixed_linear_cochain(rng, rank, window)
        verdict = is_cocycle_on_window(psi, rank, window)
        assert ordered_is_cocycle_on_window(psi, rank, window) is verdict
        verdicts.append(verdict)
    assert verdicts.count(False) >= 30 and verdicts.count(True) >= 30
