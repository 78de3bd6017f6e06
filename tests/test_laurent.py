import random
from fractions import Fraction

import pytest

from torusbv.bvalgebra import PolyVector, bv_delta, bv_delta_divergence, gerstenhaber_bracket, wedge
from torusbv.cocycle import module_action
from torusbv.densityrep import DensityRepSpec, rho_apply
from torusbv.laurent import LaurentPoly, RankMismatchError
from torusbv.parsing import format_polyvector
from torusbv.suites import random_polyvector


def L(rank, terms):
    return LaurentPoly(rank, terms)


def random_laurent(rng, rank, window=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(-window, window) for _ in range(rank))
        terms[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return LaurentPoly(rank, terms)


def test_add_cancellation():
    p = L(1, {(1,): 1, (-1,): 1})
    q = L(1, {(-1,): -1})
    assert p + q == L(1, {(1,): 1})


def test_add_identity():
    p = L(1, {(2,): Fraction(3, 2)})
    assert p + LaurentPoly.zero(1) == p


def test_add_like_terms():
    assert L(1, {(2,): 2}) + L(1, {(2,): 3}) == L(1, {(2,): 5})


def test_mul_monomial_exponents():
    p = L(2, {(1, 0): 1})
    q = L(2, {(0, -2): 1})
    assert p * q == L(2, {(1, -2): 1})


def test_mul_inverse_powers():
    assert L(1, {(3,): 1}) * L(1, {(-3,): 1}) == LaurentPoly.monomial(1, (0,))


def test_mul_schoolbook():
    # (z + 1)(z - 1) = z^2 - 1
    p = L(1, {(1,): 1, (0,): 1})
    q = L(1, {(1,): 1, (0,): -1})
    assert p * q == L(1, {(2,): 1, (0,): -1})


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        L(1, {(1,): 1}) + L(2, {(1, 0): 1})
    with pytest.raises(RankMismatchError):
        L(1, {(1,): 1}) * L(2, {(1, 0): 1})


def test_no_stored_zero_coefficients():
    p = L(1, {(1,): 1}) - L(1, {(1,): 1})
    assert p.terms == {}
    assert p.is_zero()


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_ring_axioms_randomized(rank):
    rng = random.Random(100 + rank)
    one = LaurentPoly.monomial(rank, (0,) * rank)
    for _ in range(40):
        p = random_laurent(rng, rank)
        q = random_laurent(rng, rank)
        r = random_laurent(rng, rank)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p * one == p


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_mul_support_additive(rank):
    rng = random.Random(200 + rank)
    for _ in range(30):
        p = random_laurent(rng, rank)
        q = random_laurent(rng, rank)
        sums = {
            tuple(a + b for a, b in zip(e1, e2))
            for e1 in p.terms
            for e2 in q.terms
        }
        assert set((p * q).terms) <= sums


def test_text_format():
    p = L(2, {(-2, 3): Fraction(3, 2)})
    assert str(p) == "3/2*z1^-2*z2^3"
    assert str(LaurentPoly.zero(1)) == "0"
    assert str(LaurentPoly.monomial(1, (0,))) == "1"


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_text_equals_degree0_polyvector_text(rank):
    rng = random.Random(300 + rank)
    for _ in range(50):
        p = random_laurent(rng, rank)
        assert str(p) == format_polyvector(PolyVector(rank, {(e, ()): c for e, c in p.terms.items()}))


def test_shared_store_keeps_class():
    p = L(2, {(1, 0): 1, (0, -1): Fraction(2, 3)})
    q = L(2, {(1, 0): -1})
    for result in (p + q, p - q, -p, p.scale(2)):
        assert type(result) is LaurentPoly
    assert LaurentPoly.zero(1) != PolyVector.zero(1)
    with pytest.raises(TypeError):
        p + PolyVector(2, {(e, ()): c for e, c in p.terms.items()})


def test_raw_owns_a_dict_without_zeros_and_copies_one_with():
    terms = {(1,): 2, (-1,): Fraction(1, 3)}
    assert LaurentPoly._raw(1, terms).terms is terms
    with_zero = {(1,): 2, (0,): 0, (-1,): Fraction(1, 3)}
    store = LaurentPoly._raw(1, with_zero)
    assert store.terms == {(1,): 2, (-1,): Fraction(1, 3)} and store.terms is not with_zero
    assert with_zero == {(1,): 2, (0,): 0, (-1,): Fraction(1, 3)}


def test_results_never_share_an_operands_terms():
    # _raw keeps the dict it is given, so each operation must hand it one of
    # its own, also where the result equals an operand (x + 0, 1 * x)
    rng = random.Random(3)
    for _ in range(30):
        rank = rng.randint(1, 2)
        a, b = random_polyvector(rng, rank), random_polyvector(rng, rank)
        x = PolyVector.xi(rank, tuple(rng.randint(-2, 2) for _ in range(rank)), rng.randint(1, rank))
        p, q = random_laurent(rng, rank), random_laurent(rng, rank)
        z = random_laurent(rng, 1)
        cases = [
            (p + q, p, q), (p + LaurentPoly.zero(rank), p), (p - q, p, q), (-p, p),
            (p.scale(1), p), (a + b, a, b), (a - b, a, b), (-a, a), (a.scale(1), a),
            (wedge(a, b), a, b), (wedge(a, PolyVector.monomial(rank, (0,) * rank)), a),
            (gerstenhaber_bracket(a, b), a, b), (bv_delta(a), a), (bv_delta_divergence(a), a),
            (module_action(x, p), x, p), (rho_apply(DensityRepSpec(0, 1), 0, z), z),
        ]
        for result, *operands in cases:
            assert all(result.terms is not o.terms for o in operands), (result, operands)


def test_inexact_coefficients_rejected():
    with pytest.raises(TypeError):
        LaurentPoly(1, {(0,): 0.1})
    with pytest.raises(TypeError):
        PolyVector.monomial(1, (0,), (), True)
    with pytest.raises(TypeError):
        L(1, {(1,): 1}).scale(1j)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PolyVector(1, {((2.7,), (1,)): 1}),
        lambda: LaurentPoly(1, {(Fraction(5, 2),): 1}),
        lambda: LaurentPoly(2, {(1.0, 0): 1}),
        lambda: LaurentPoly(1, {(True,): 1}),
        lambda: PolyVector(2, {((0, 0), (1.0,)): 1}),
        lambda: PolyVector(2, {((0, 0), (True,)): 1}),
        lambda: PolyVector(2, {((0, 0), (1, 1.0)): 1}),
        lambda: PolyVector.monomial(1, (Fraction(3),), (1,)),
    ],
    ids=["float", "fraction", "float_laurent", "bool", "float_wedge", "bool_wedge",
         "float_wedge_repeat", "integral_fraction"],
)
def test_non_integer_exponents_and_wedge_indices_rejected(build):
    # each was truncated or stored as given, and printed wrongly, before
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: LaurentPoly(2.0, {(1, 2): 3}),
        lambda: LaurentPoly(True, {(1,): 3}),
        lambda: LaurentPoly(Fraction(1), {}),
        lambda: PolyVector(True, {((1,), (1,)): 1}),
        lambda: PolyVector(2.0, {}),
        lambda: LaurentPoly.zero(True),
    ],
    ids=["float_laurent", "bool_laurent", "fraction_laurent", "bool_polyvector",
         "float_polyvector", "bool_zero"],
)
def test_non_int_ranks_rejected(build):
    # each stored its rank as given before: a bool rank 1 equalled rank 1
    with pytest.raises(TypeError, match=r"^rank must be an integer, got "):
        build()


def test_int_string_exponents_still_accepted():
    assert L(2, {("3", "-1"): 2}) == L(2, {(3, -1): 2})
    assert PolyVector(1, {(("-2",), (1,)): 1}) == PolyVector.monomial(1, (-2,), (1,))
    with pytest.raises(ValueError):
        L(1, {("2.5",): 1})


@pytest.mark.parametrize(
    "text", ["1_0", " 1_0 ", "+3", " 3", "3 ", "- 3", "--3", "", "0x3", "\u0663", "-\uff13"]
)
def test_exponent_strings_outside_the_grammar_rejected(text):
    # the polyvector grammar spells an exponent -?\d+, as z^3 or z^-3
    with pytest.raises(ValueError, match="is not an integer string"):
        L(1, {(text,): 1})
    with pytest.raises(ValueError, match="is not an integer string"):
        PolyVector(2, {((0, text), (1,)): 1})


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_sub_equals_add_of_negation(rank):
    rng = random.Random(400 + rank)
    for _ in range(60):
        p, q = random_laurent(rng, rank), random_laurent(rng, rank)
        a, b = random_polyvector(rng, rank, 2), random_polyvector(rng, rank, 2)
        for x, y in ((p, q), (a, b), (p, p), (a, a)):
            diff = x - y
            assert diff == x + (-y)
            assert type(diff) is type(x)
            assert all(type(c) in (int, Fraction) and c for c in diff.terms.values())
        assert (p - p).terms == {} and (a - a).terms == {}


def test_sub_checks_rank_and_type():
    with pytest.raises(RankMismatchError):
        L(1, {(1,): 1}) - L(2, {(1, 0): 1})
    with pytest.raises(RankMismatchError):
        PolyVector.theta(1, 1) - PolyVector.theta(2, 1)
    with pytest.raises(TypeError):
        L(1, {(1,): 1}) - PolyVector.theta(1, 1)
    with pytest.raises(TypeError):
        PolyVector.theta(1, 1) - L(1, {(1,): 1})
