"""The coefficient rule: a coefficient is an int when it is integral and a
Fraction otherwise.  Constructors and the parser store that canonical form;
the kernels, which build through `_raw`, keep int inputs int."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from torusbv.bvalgebra import PolyVector, bv_delta, bv_delta_divergence, gerstenhaber_bracket, wedge
from torusbv.cocycle import CE1Cochain, module_action, parse_cochain_spec
from torusbv.densityrep import DensityRepSpec
from torusbv.laurent import LaurentPoly, _as_coefficient
from torusbv.liealg import GlMatrixElement, restrict_from_projective
from torusbv.parsing import parse_coefficient, parse_polyvector


def canonical(c):
    return (type(c) is int or type(c) is Fraction and c.denominator != 1) and c != 0


def test_as_coefficient_rule():
    big = 3**80
    for value, want in [
        (7, 7), (0, 0), (-big, -big), (Fraction(6, 3), 2), (Fraction(-big, 1), -big),
        ("4/2", 2), ("-5", -5), (" 3 ", 3), (Decimal("2.0"), 2),
    ]:
        got = _as_coefficient(value)
        assert type(got) is int and got == want, value
    for value, want in [(Fraction(1, 3), Fraction(1, 3)), ("-3/2", Fraction(-3, 2)), (Decimal("0.1"), Fraction(1, 10))]:
        got = _as_coefficient(value)
        assert type(got) is Fraction and got == want, value
    for value in (True, False, 0.5, 2.0, 1j):
        with pytest.raises(TypeError):
            _as_coefficient(value)
    with pytest.raises(ValueError):
        _as_coefficient("0.1.2")


def test_constructors_and_parser_store_the_canonical_form():
    half = Fraction(1, 2)
    # merged terms whose Fractions sum to an integer are stored as ints
    p = LaurentPoly(1, {(2,): half, ("2",): half, (1,): Fraction(4, 2), (0,): "1/3"})
    assert p.terms == {(2,): 1, (1,): 2, (0,): Fraction(1, 3)}
    v = PolyVector(2, {((0, 0), (1, 2)): half, ((0, 0), (2, 1)): -half, ((1, 0), ()): "6/3"})
    assert v.terms == {((0, 0), (1, 2)): 1, ((1, 0), ()): 2}
    parsed = [
        parse_polyvector("1/2*t1*t2 - 1/2*t2*t1 + 1/2*z1*t1 + 1/2*z1*t1 + 4/2*z2 - 1/3", 2),
        parse_polyvector("3/3*z^(1,1)*t2 + 2/7*t1", 2),
    ]
    assert parsed[0].terms == {((0, 0), (1, 2)): 1, ((1, 0), (1,)): 1, ((0, 1), ()): 2, ((0, 0), ()): Fraction(-1, 3)}
    assert parsed[1].terms == {((1, 1), (2,)): 1, ((0, 0), (1,)): Fraction(2, 7)}
    m = GlMatrixElement(3, {(0, 1): Fraction(8, 4), (1, 1): "1/2", (2, 0): -3})
    assert m.entries == {(0, 1): 2, (1, 1): half, (2, 0): -3}
    assert m.commutator(m).entries == {}
    for x in (p, v, *parsed, LaurentPoly.monomial(1, (1,), Fraction(5, 5)), PolyVector.xi(2, (1, 0), 2)):
        assert all(map(canonical, x.terms.values())), x.terms
    assert all(map(canonical, m.entries.values()))
    spec = DensityRepSpec(Fraction(-4, 2), "3")
    assert (type(spec.alpha), type(spec.beta), type(spec.shift(5))) == (int, int, int)
    cochain = parse_cochain_spec("alpha=2/2,beta=[-1/2,4/1]", 2)
    assert (type(cochain.alpha), [type(b) for b in cochain.betas]) == (int, [Fraction, int])
    assert [type(parse_coefficient(t)) for t in ("6/3", "-1/2", "0")] == [int, Fraction, int]


def int_polyvector(rng, rank, degrees=(0, 1, 2)):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exp = tuple(rng.randint(-2, 2) for _ in range(rank))
        w = tuple(sorted(rng.sample(range(1, rank + 1), min(rank, rng.choice(degrees)))))
        terms[exp, w] = rng.choice((-3, -2, -1, 1, 2, 5))
    return PolyVector(rank, terms)


def int_laurent(rng, rank):
    return LaurentPoly(rank, {
        tuple(rng.randint(-2, 2) for _ in range(rank)): rng.choice((-2, -1, 1, 3))
        for _ in range(rng.randint(1, 4))
    })


def test_int_inputs_stay_int_through_the_kernels():
    """A Fraction back on the integral path costs the speed this rule gives;
    every result built from int coefficients holds ints only."""
    rng = random.Random(21)
    nonempty = {}
    for _ in range(300):
        rank = rng.randint(1, 3)
        a, b = int_polyvector(rng, rank), int_polyvector(rng, rank)
        x, y = int_polyvector(rng, rank, (1,)), int_polyvector(rng, rank, (1,))
        m, g = int_laurent(rng, rank), int_laurent(rng, rank)
        cochain = CE1Cochain(rank, rng.randint(-3, 3), [rng.randint(-3, 3) for _ in range(rank)], g)
        size = rank + 1
        matrix = GlMatrixElement(size, {
            (rng.randrange(size), rng.randrange(size)): rng.randint(-4, 4) for _ in range(3)
        })
        results = {
            "gerstenhaber_bracket": gerstenhaber_bracket(a, b),
            "wedge": wedge(a, b),
            "bv_delta": bv_delta(a),
            "bv_delta_divergence": bv_delta_divergence(a),
            "module_action": module_action(x, m),
            "evaluate": cochain.evaluate(y),
            "restrict_from_projective": restrict_from_projective(matrix),
        }
        for name, result in results.items():
            assert all(type(c) is int for c in result.terms.values()), (name, result.terms)
            nonempty[name] = nonempty.get(name, 0) + bool(result)
    assert len(nonempty) == 7 and min(nonempty.values()) > 100, nonempty


def test_non_integral_inputs_give_exact_fractions():
    half, third = Fraction(1, 2), Fraction(1, 3)
    a = PolyVector.xi(1, (1,), 1).scale(Fraction(3, 2))
    b = PolyVector.xi(1, (2,), 1).scale(third)
    # [xi_1, xi_2] = xi_3, times 3/2 * 1/3
    assert gerstenhaber_bracket(a, b).terms == {((3,), (1,)): half}
    assert type(gerstenhaber_bracket(a, b).terms[(3,), (1,)]) is Fraction
    assert wedge(a.scale(2), b.scale(3)).is_zero()
    assert wedge(a, PolyVector.monomial(1, (0,), (), third)).terms == {((1,), (1,)): half}
    assert bv_delta(b).terms == bv_delta_divergence(b).terms == {((2,), ()): Fraction(2, 3)}
    z = LaurentPoly.monomial(1, (1,), third)
    assert module_action(b, z).terms == {(3,): Fraction(1, 9)}
    psi = CE1Cochain(1, alpha=half, betas=[third])
    assert psi.evaluate(PolyVector.xi(1, (1,), 1)).terms == {(1,): Fraction(5, 6)}
    # non-integral factors whose product is integral: an exact value, int or
    # Fraction, never a float
    products = [gerstenhaber_bracket(a, b.scale(6)).terms[(3,), (1,)], (z.scale(3) * z.scale(3)).terms[(2,)]]
    assert products == [3, 1] and all(type(c) in (int, Fraction) for c in products)
    got = restrict_from_projective(GlMatrixElement(2, {(1, 0): Fraction(3, 2)}))
    assert got.terms == {((1,), (1,)): Fraction(-3, 2)}
