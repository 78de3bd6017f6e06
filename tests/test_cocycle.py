from fractions import Fraction

import pytest

from torusbv.bvalgebra import PolyVector
from torusbv.cocycle import (
    CE1Cochain,
    ce_differential_check,
    is_cocycle_on_window,
    module_action,
    parse_cochain_spec,
    witt_basis,
)
from torusbv.laurent import LaurentPoly


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
    with pytest.raises(ValueError):
        CE1Cochain(1, alpha=1).evaluate(PolyVector.xi(2, (0, 0), 1))


def test_parse_cochain_spec_rank2():
    psi = parse_cochain_spec("alpha=-1/2,beta=[1/3,-2],g=z1^2*z2^-1", 2)
    assert psi.alpha == Fraction(-1, 2)
    assert psi.betas == [Fraction(1, 3), Fraction(-2)]
    assert psi.exact_part == LaurentPoly(2, {(2, -1): 1})
    with pytest.raises(ValueError):
        parse_cochain_spec("beta=[1,2", 2)
