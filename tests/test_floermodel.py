from fractions import Fraction

import pytest

from torusbv import floermodel
from torusbv.densityrep import FiniteSl2Module
from torusbv.floermodel import (
    ChordGenerator,
    casimir_scalar,
    end_action,
    floer_report,
    identify_with_density_model,
    solve_forced_action,
)


def test_generator_kind_validation():
    with pytest.raises(ValueError):
        ChordGenerator("mystery", 0)


def test_end_action_highest_weight_kernels():
    # xi_1 kills v_{+,0} (top intersection point) and xi_{-1} kills v_{-,0}.
    v_plus = ChordGenerator("intersection", 3)
    v_minus = ChordGenerator("intersection", 0)
    assert end_action(1, v_plus, 3) == (0, None)
    assert end_action(-1, v_minus, 3) == (0, None)


def test_end_action_on_proper_chords():
    coeff, out = end_action(2, ChordGenerator("proper_plus", 3 + 3), 3)
    assert coeff == 3
    assert out == ChordGenerator("proper_plus", 3 + 5)

    coeff, out = end_action(-1, ChordGenerator("proper_minus", -2), 3)
    assert coeff == -2
    assert out == ChordGenerator("proper_minus", -3)


def test_end_action_out_of_regime_rejected():
    with pytest.raises(ValueError):
        end_action(1, ChordGenerator("proper_minus", -1), 3)
    with pytest.raises(ValueError):
        end_action(-1, ChordGenerator("proper_plus", 4), 3)
    with pytest.raises(ValueError):
        end_action(0, ChordGenerator("proper_plus", 4), 3)
    with pytest.raises(ValueError):
        end_action(1, ChordGenerator("intersection", 1), 3)


def test_end_action_bracket_consistency():
    # [xi_j, xi_j'] = (j' - j) xi_{j+j'} on the plus-end closed form.
    n = 2

    def apply_xi(j, state):
        out = {}
        for g, coeff in state.items():
            c, image = end_action(j, g, n)
            if image is not None:
                out[image] = out.get(image, Fraction(0)) + c * coeff
        return {g: c for g, c in out.items() if c}

    for j in range(1, 4):
        for jp in range(1, 4):
            for k in range(0, 6):
                start = {ChordGenerator("proper_plus", n + k) if k else ChordGenerator("intersection", n): Fraction(1)}
                lhs = apply_xi(j, apply_xi(jp, start))
                rhs = apply_xi(jp, apply_xi(j, start))
                merged = dict(lhs)
                for g, c in rhs.items():
                    merged[g] = merged.get(g, Fraction(0)) - c
                merged = {g: c for g, c in merged.items() if c}
                expected = apply_xi(j + jp, start)
                expected = {g: (jp - j) * c for g, c in expected.items() if (jp - j) * c}
                assert merged == expected


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
    assert casimir_scalar(action) == Fraction(n * (n + 2), 2)


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
    assert module.casimir() == [3, 2, 3]
    assert casimir_scalar(module) is None
    assert casimir_scalar(solve_forced_action(2)[0]) == 4


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
    report = floer_report(3)
    assert report["unique_up_to_rescaling"] is False
    assert report["matches_density_model"] is False


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
