"""The coefficient rule: a coefficient is an int when it is integral and a
Fraction otherwise.  Constructors and the parser store that canonical form;
the kernels, which build through `_raw`, keep int inputs int, and the
density action `rho_apply` gives the canonical form on every spec."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from torusbv.bvalgebra import PolyVector, bv_delta, bv_delta_divergence, gerstenhaber_bracket, wedge
from torusbv.cocycle import CE1Cochain, module_action
from torusbv.densityrep import DensityRepSpec, extract_finite_sl2_submodule, rho_apply
from torusbv.laurent import LaurentPoly, _as_coefficient
from torusbv.liealg import GlMatrixElement, restrict_from_projective
from torusbv.parsing import ParseError, parse_cochain_spec, parse_coefficient, parse_polyvector


def canonical(c):
    return (type(c) is int or type(c) is Fraction and c.denominator != 1) and c != 0


def test_as_coefficient_rule():
    big = 3**80
    for value, want in [
        (7, 7), (0, 0), (-big, -big), (Fraction(6, 3), 2), (Fraction(-big, 1), -big),
        (Decimal("2.0"), 2),
    ]:
        got = _as_coefficient(value)
        assert type(got) is int and got == want, value
    for value, want in [(Fraction(1, 3), Fraction(1, 3)), (Decimal("0.1"), Fraction(1, 10))]:
        got = _as_coefficient(value)
        assert type(got) is Fraction and got == want, value
    # text is read by `parsing` only: a string is no number here
    for value in (True, False, 0.5, 2.0, 1j, "4/2", "-3/2", "0.1.2"):
        with pytest.raises(TypeError, match=r"^inexact coefficient "):
            _as_coefficient(value)


def test_constructors_and_parser_store_the_canonical_form():
    half = Fraction(1, 2)
    # integral Fractions, and merged terms whose Fractions sum to an
    # integer, are stored as ints
    p = LaurentPoly(1, {(2,): Fraction(2, 2), (1,): Fraction(4, 2), (0,): Fraction(2, 6)})
    assert p.terms == {(2,): 1, (1,): 2, (0,): Fraction(1, 3)}
    v = PolyVector(2, {((0, 0), (1, 2)): half, ((0, 0), (2, 1)): -half, ((1, 0), ()): Fraction(6, 3)})
    assert v.terms == {((0, 0), (1, 2)): 1, ((1, 0), ()): 2}
    parsed = [
        parse_polyvector("1/2*t1*t2 - 1/2*t2*t1 + 1/2*z1*t1 + 1/2*z1*t1 + 4/2*z2 - 1/3", 2),
        parse_polyvector("3/3*z^(1,1)*t2 + 2/7*t1", 2),
    ]
    assert parsed[0].terms == {((0, 0), (1, 2)): 1, ((1, 0), (1,)): 1, ((0, 1), ()): 2, ((0, 0), ()): Fraction(-1, 3)}
    assert parsed[1].terms == {((1, 1), (2,)): 1, ((0, 0), (1,)): Fraction(2, 7)}
    m = GlMatrixElement(3, {(0, 1): Fraction(8, 4), (1, 1): half, (2, 0): -3})
    assert m.entries == {(0, 1): 2, (1, 1): half, (2, 0): -3}
    assert m.commutator(m).entries == {}
    for x in (p, v, *parsed, LaurentPoly.monomial(1, (1,), Fraction(5, 5)), PolyVector.xi(2, (1, 0), 2)):
        assert all(map(canonical, x.terms.values())), x.terms
    assert all(map(canonical, m.entries.values()))
    spec = DensityRepSpec(Fraction(-4, 2), Fraction(3))
    shift = rho_apply(spec, 5, LaurentPoly.monomial(1, (0,))).terms[5,]
    assert (type(spec.alpha), type(spec.beta), type(shift)) == (int, int, int)
    cochain = parse_cochain_spec("alpha=2/2,beta=[-1/2,4/1]", 2)
    assert (type(cochain.alpha), [type(b) for b in cochain.betas]) == (int, [Fraction, int])
    assert [type(parse_coefficient(t)) for t in ("6/3", "-1/2", "0")] == [int, Fraction, int]


STRING_CONSTRUCTORS = {
    "LaurentPoly": lambda c: LaurentPoly(1, {(3,): c}).terms[3,],
    "PolyVector": lambda c: PolyVector(1, {((3,), (1,)): c}).terms[(3,), (1,)],
    "GlMatrixElement": lambda c: GlMatrixElement(2, {(0, 1): c}).entries[0, 1],
    "DensityRepSpec": lambda c: DensityRepSpec(c, 0).alpha,
    "CE1Cochain_alpha": lambda c: CE1Cochain(2, alpha=c).alpha,
    "CE1Cochain_betas": lambda c: CE1Cochain(2, betas=[0, c]).betas[1],
    "scale": lambda c: PolyVector.theta(1, 1).scale(c).terms[(0,), (1,)],
}


@pytest.mark.parametrize("build", STRING_CONSTRUCTORS.values(), ids=STRING_CONSTRUCTORS.keys())
def test_string_coefficients_follow_the_coefficient_grammar(build):
    """Text reaches a constructor only through `parse_coefficient`, which
    reads it as the polyvector grammar does: ASCII digits, an optional sign
    and an optional denominator, nothing else.  The constructor itself
    raises TypeError on a string, spelt in the grammar or not."""
    for text, want in [("1/3", Fraction(1, 3)), ("6/3", 2), ("-3", -3), ("+3", 3), (" -1/2 ", Fraction(-1, 2))]:
        got = build(parse_coefficient(text))
        assert got == want and canonical(got), text
        with pytest.raises(TypeError, match=r"^inexact coefficient "):
            build(text)
    # Arabic-Indic digits, a decimal, an exponent, a digit separator, a zero
    # denominator, and texts the parser reads only inside a product
    for text in ("\u0661/\u0662", "0.5", "1e2", "1_000", "1/0", "", "1/-2", "- 3", "3/2/1", "inf", "z"):
        with pytest.raises(TypeError, match=r"^inexact coefficient "):
            build(text)
        with pytest.raises(ParseError) as err:
            parse_coefficient(text, 4)
        assert err.value.position == 4
        assert str(err.value) == f"{err.value.message} (at position 4)"
        reason = "zero denominator in" if text == "1/0" else "not a rational number:"
        assert err.value.message == f"{reason} {text!r}"


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
    # outside the constructor, the parser and rho_apply, an integral result
    # may be stored as a Fraction; it acts as its int twin everywhere
    half_z = PolyVector.monomial(1, (1,), (), half)
    half_l = LaurentPoly.monomial(1, (1,), half)
    for result, twin in [
        (wedge(half_z, PolyVector.monomial(1, (0,), (), 2)), PolyVector.monomial(1, (1,))),
        (half_z + half_z, PolyVector.monomial(1, (1,))),
        (half_z.scale(2), PolyVector.monomial(1, (1,))),
        (half_l + half_l, LaurentPoly.monomial(1, (1,))),
        (half_l.scale(2), LaurentPoly.monomial(1, (1,))),
    ]:
        assert [type(c) for c in result.terms.values()] == [Fraction]
        assert [type(c) for c in twin.terms.values()] == [int]
        assert result == twin and hash(result) == hash(twin) and str(result) == str(twin)
        if isinstance(result, PolyVector):
            assert result.to_json() == twin.to_json()


def test_density_path_on_int_specs_holds_ints():
    """The density action and its composites on int specs and int monomials
    hold ints only, as the kernels do."""
    got = rho_apply(DensityRepSpec(0, 0), 1, LaurentPoly.monomial(1, (2,)))
    assert got.terms == {(3,): 2} and type(got.terms[3,]) is int
    rng = random.Random(22)
    composites = 0
    for _ in range(100):
        spec = DensityRepSpec(rng.randint(-4, 4), rng.randint(-4, 4))
        zj = LaurentPoly.monomial(1, (rng.randint(-5, 5),), rng.choice((-3, -1, 1, 2)))
        n, m = rng.randint(-3, 3), rng.randint(-3, 3)
        inner = rho_apply(spec, m, zj)
        composite = rho_apply(spec, n, inner)
        for result in (inner, composite):
            assert all(type(c) is int for c in result.terms.values()), (spec, n, m, result.terms)
        composites += bool(composite)
    assert composites > 50


def test_density_path_on_half_integral_specs_is_canonical():
    rng = random.Random(23)
    ints = fractions = 0
    for _ in range(100):
        spec = DensityRepSpec(Fraction(rng.randint(-8, 4), 2), Fraction(rng.randint(-8, 8), 2))
        p = LaurentPoly(1, {
            (rng.randint(-5, 5),): Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
            for _ in range(rng.randint(1, 4))
        })
        n, m = rng.randint(-3, 3), rng.randint(-3, 3)
        for result in (rho_apply(spec, m, p), rho_apply(spec, n, rho_apply(spec, m, p))):
            assert all(map(canonical, result.terms.values())), (spec, n, m, result.terms)
            ints += sum(type(c) is int for c in result.terms.values())
            fractions += sum(type(c) is Fraction for c in result.terms.values())
    assert ints > 100 and fractions > 100, (ints, fractions)


def test_density_shift_and_casimir_are_canonical():
    half = Fraction(1, 2)
    spec = DensityRepSpec(half, half)
    one = LaurentPoly.monomial(1, (0,))
    shifts = [rho_apply(spec, i, one).terms.get((i,), 0) for i in (1, 2, -1, 0)]
    assert [(s, type(s)) for s in shifts] == [
        (1, int), (Fraction(3, 2), Fraction), (0, int), (half, Fraction)
    ]
    casimir = extract_finite_sl2_submodule(DensityRepSpec(-1, -1)).casimir()
    assert (casimir, type(casimir)) == (4, int)
    casimir = extract_finite_sl2_submodule(DensityRepSpec(-half, -half)).casimir()
    assert (casimir, type(casimir)) == (Fraction(3, 2), Fraction)
