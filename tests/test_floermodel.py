from fractions import Fraction

import pytest

from torusbv import densityrep, floermodel, suites
from torusbv.densityrep import DensityRepSpec, FiniteSl2Module, rho_apply
from torusbv.floermodel import floer_report, identify_with_density_model, solve_forced_action
from torusbv.laurent import LaurentPoly

from test_densityrep import dense_casimir

ENDS = DensityRepSpec(0, 0)


def z(k):
    return LaurentPoly.monomial(1, (k,))


def test_end_action_highest_weight_kernels():
    # xi_1 kills v_{+,0} (top intersection point) and xi_{-1} kills v_{-,0}.
    assert rho_apply(ENDS, 1, z(0)).is_zero()
    assert rho_apply(ENDS, -1, z(0)).is_zero()


def test_end_action_on_proper_chords():
    # xi_j v_k = k v_{k+j} on both ends, in the regimes the geometry proves
    for js, ks in ((range(1, 5), range(0, 7)), (range(-4, 0), range(-6, 1))):
        for j in js:
            for k in ks:
                assert rho_apply(ENDS, j, z(k)) == LaurentPoly.monomial(1, (k + j,), k), (j, k)


def test_end_action_bracket_consistency():
    # [xi_j, xi_j'] = (j' - j) xi_{j+j'} on both ends, by LaurentPoly arithmetic
    for js, ks in ((range(1, 4), range(0, 6)), (range(-3, 0), range(-5, 1))):
        for j in js:
            for jp in js:
                for k in ks:
                    lhs = rho_apply(ENDS, j, rho_apply(ENDS, jp, z(k))) - rho_apply(
                        ENDS, jp, rho_apply(ENDS, j, z(k))
                    )
                    assert lhs == rho_apply(ENDS, j + jp, z(k)).scale(jp - j), (j, jp, k)


def _end_action_with(coefficient):
    """An end action xi_j z^k = coefficient(k) z^{k+j} in place of
    densityrep.rho_apply."""

    def action(spec, j, p):
        return LaurentPoly(1, {(k + j,): c * coefficient(k) for (k,), c in p.terms.items()})

    return action


@pytest.mark.parametrize(
    "coefficient, ok",
    [(lambda k: k * k, False), (lambda k: k if k >= 0 else k * k, False), (lambda k: k + 1, True)],
    ids=["k_squared", "k_squared_on_minus_end", "beta_shift"],
)
def test_end_action_bracket_consistency_can_fail(monkeypatch, coefficient, ok):
    """The coefficient k^2 in place of k is no Lie action, and the suite line
    must fail on it, also where only the minus end (k < 0) is wrong; the
    beta-shift k + 1 is rho_{0,1}, a genuine action, and must still pass."""
    assert suites.floer_suite(2)["passed"]
    monkeypatch.setattr(densityrep, "rho_apply", _end_action_with(coefficient))
    report = suites.floer_suite(2)
    (line,) = [c for c in report["checks"] if c["name"] == "end_action_bracket_consistency"]
    assert line["ok"] is ok
    assert report["passed"] is ok


def test_forced_action_n1():
    (action,) = solve_forced_action(1)
    assert action.a[0] * action.b[0] == 1


def test_forced_action_n2():
    (action,) = solve_forced_action(2)
    products = [action.a[k] * action.b[k] for k in range(2)]
    assert products == [2, 2]


@pytest.mark.parametrize("n", range(1, 7))
def test_forced_action_unique_and_irreducible(n):
    solutions = solve_forced_action(n)
    assert len(solutions) == 1
    action = solutions[0]
    # canonical form and forced products c_k = (k+1)(n-k)
    assert action.a == [Fraction(n - k) for k in range(n)]
    assert [action.a[k] * action.b[k] for k in range(n)] == [
        (k + 1) * (n - k) for k in range(n)
    ]
    assert action.dim == n + 1
    assert action.h_spectrum() == list(range(-n, n + 1, 2))
    assert action.casimir() == Fraction(n * (n + 2), 2)


def test_forced_chains_hold_ints():
    # the canonical chain a[k] = n - k, b[k] = k + 1, all ints
    for n in range(1, 13):
        (action,) = solve_forced_action(n)
        assert all(type(v) is int for v in action.weights + action.a + action.b)
        assert action.b == [k + 1 for k in range(n)]


def test_forced_action_stability():
    # e kills the top grading and f kills the bottom one.
    for n in range(1, 7):
        (action,) = solve_forced_action(n)
        e, f = action.e, action.f
        dim = n + 1
        assert all(e[i][dim - 1] == 0 for i in range(dim))
        assert all(f[i][0] == 0 for i in range(dim))


@pytest.mark.parametrize("shifted", ["first", "middle"])
def test_off_by_one_telescoped_product_raises(monkeypatch, shifted):
    # c_0 + 1 (n >= 2) and c_{n//2} + 1 (n >= 3) still floor-divide to the
    # right b, since a_k > 1 there; the remainder must stop them
    true_products = floermodel._telescoped_products
    for n in range(2 if shifted == "first" else 3, 12):
        k = 0 if shifted == "first" else n // 2
        c = true_products(n)
        assert c == [(j + 1) * (n - j) for j in range(n)]
        c[k] += 1
        assert n - k > 1 and c[k] // (n - k) == k + 1
        monkeypatch.setattr(floermodel, "_telescoped_products", lambda n, c=c: c)
        with pytest.raises(ValueError, match=f"c_{k} = {c[k]} is not a multiple of a_{k} = {n - k}"):
            solve_forced_action(n)
        monkeypatch.setattr(floermodel, "_telescoped_products", true_products)
        assert solve_forced_action(n)[0].b == [j + 1 for j in range(n)]


def test_solver_rejects_bad_n():
    with pytest.raises(ValueError):
        solve_forced_action(0)


@pytest.mark.parametrize("n", range(1, 7))
def test_density_model_match(n):
    report = identify_with_density_model(n)
    assert report["matches"]
    assert report["h_spectrum"] == list(range(-n, n + 1, 2))


def test_floer_report_n3():
    report = floer_report(3)
    assert report["dim"] == 4
    assert report["h_spectrum"] == [-3, -1, 1, 3]
    assert report["casimir"] == "15/2"
    assert report["unique_up_to_rescaling"]
    assert report["matches_density_model"]


def test_casimir_scalar_is_none_off_a_scalar_chain():
    # ef + fe + h^2/2 takes the values 3, 2, 3 on this unchecked chain
    module = FiniteSl2Module.unchecked([0, 1, 2], [-2, 0, 2], [1, 1], [1, 1])
    assert dense_casimir(module) == [[3, 0, 0], [0, 2, 0], [0, 0, 3]]
    assert module.casimir() is None
    assert solve_forced_action(2)[0].casimir() == 4


@pytest.mark.parametrize("factors", [[3] * 4, [1, 1, 3, 1]], ids=["every_b", "one_b"])
def test_density_match_fails_when_b_is_off_by_a_factor(monkeypatch, factors):
    good_report = identify_with_density_model(4)
    assert good_report["matches"] is True
    (good,) = solve_forced_action(4)
    bad = FiniteSl2Module.unchecked(
        good.basis_exponents, good.weights, good.a, [c * v for c, v in zip(factors, good.b)]
    )
    monkeypatch.setattr(floermodel, "solve_forced_action", lambda n: [bad])
    report = identify_with_density_model(4)
    # a is unchanged, so e still fixes the same rescaling, which then fails on f
    assert report["matches"] is False
    assert report["rescaling"] == good_report["rescaling"]
    assert floer_report(4)["matches_density_model"] is False


def test_zero_step_product_is_not_unique_up_to_rescaling(monkeypatch):
    # b[1] = 0 makes a_1 b_2 = 0: rescaling then cannot reach every chain
    (good,) = solve_forced_action(3)
    assert floer_report(3)["unique_up_to_rescaling"] is True
    b = list(good.b)
    b[1] = 0
    bad = FiniteSl2Module.unchecked(good.basis_exponents, good.weights, good.a, b)
    monkeypatch.setattr(floermodel, "solve_forced_action", lambda n: [bad])
    assert identify_with_density_model(3)["unique_up_to_rescaling"] is False
    report = floer_report(3)
    assert report["unique_up_to_rescaling"] is False
    assert report["matches_density_model"] is False


@pytest.mark.parametrize("n", [1, 4])
def test_floer_report_solves_the_forced_chain_once(monkeypatch, n):
    calls = []

    def counting(n):
        calls.append(n)
        return solve_forced_action(n)

    monkeypatch.setattr(floermodel, "solve_forced_action", counting)
    report = floer_report(n)
    assert calls == [n]
    match = identify_with_density_model(n)
    assert report["unique_up_to_rescaling"] is match["unique_up_to_rescaling"] is True


def test_density_match_fails_when_the_weights_are_permuted(monkeypatch):
    # e and f agree with the forced chain, so only the h comparison can fail
    good_report = identify_with_density_model(3)
    assert good_report["matches"] is True
    (good,) = solve_forced_action(3)
    weights = [good.weights[t] for t in (1, 0, 2, 3)]
    bad = FiniteSl2Module.unchecked(good.basis_exponents, weights, good.a, good.b)
    monkeypatch.setattr(floermodel, "solve_forced_action", lambda n: [bad])
    report = identify_with_density_model(3)
    assert report["matches"] is False
    assert report["rescaling"] == good_report["rescaling"]
    assert report["h_spectrum"] == good_report["h_spectrum"] == [-3, -1, 1, 3]
    assert floer_report(3)["matches_density_model"] is False
