import random
from fractions import Fraction

import pytest

from torusbv.bvalgebra import (
    PolyVector,
    bv_delta,
    bv_delta_divergence,
    gerstenhaber_bracket,
    normalize_wedge,
    wedge,
)
from torusbv.cocycle import module_action
from torusbv.densityrep import DensityRepSpec, rho_apply
from torusbv.laurent import LaurentPoly, RankMismatchError, _as_coefficient, _check_size, _exponent
from torusbv.parsing import format_polyvector, parse_polyvector
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


def test_int_string_exponents_rejected():
    # text is read by `parsing` only; each of these was read as an int before
    for exp in (("3", "-1"), (3, "-1"), ("2.5", 0)):
        with pytest.raises(TypeError, match=r"^exponent entry must be an integer, got '"):
            L(2, {exp: 2})
    with pytest.raises(TypeError, match=r"^exponent entry must be an integer, got '-2'$"):
        PolyVector(1, {(("-2",), (1,)): 1})
    assert parse_polyvector("2*z1^3*z2^-1", 2).degree0_to_laurent() == L(2, {(3, -1): 2})


@pytest.mark.parametrize(
    "text", ["1_0", " 1_0 ", "+3", " 3", "3 ", "- 3", "--3", "", "0x3", "\u0663", "-\uff13"]
)
def test_exponent_strings_outside_the_grammar_rejected(text):
    # the polyvector grammar spells an exponent -?\d+, as z^3 or z^-3; no
    # exponent string is read by a constructor
    with pytest.raises(TypeError, match=r"^exponent entry must be an integer, got "):
        L(1, {(text,): 1})
    with pytest.raises(TypeError, match=r"^exponent entry must be an integer, got "):
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


@pytest.mark.parametrize(
    "wedge_key, coeff, error, message",
    [
        ((5, 5), 1, ValueError, r"^wedge indices \(5, 5\) out of range for rank 2$"),
        ((1, 1), 0.5, TypeError, r"^inexact coefficient 0\.5;"),
        ((1, 1), True, TypeError, r"^inexact coefficient True;"),
        ((1, 1), "abc", TypeError, r"^inexact coefficient 'abc';"),
        ((1, 1), "1/0", TypeError, r"^inexact coefficient '1/0';"),
    ],
    ids=["out_of_range", "float", "bool", "not_rational", "zero_denominator"],
)
def test_a_repeated_generator_is_checked_before_its_term_drops(wedge_key, coeff, error, message):
    # each gave 0 before: the term was dropped as theta_i ^ theta_i = 0
    # before its range and coefficient were checked
    with pytest.raises(error, match=message):
        PolyVector(2, {((0, 0), wedge_key): coeff})
    assert PolyVector(2, {((0, 0), (1, 1)): Fraction(3, 2)}).is_zero()


def former_laurent_terms(rank, terms=None):
    """The former `LaurentPoly.__init__`, kept as the oracle of the one
    constructor."""
    _check_size("rank", rank)
    clean = {}
    for exp, coeff in (terms or {}).items():
        exp = _exponent(exp, rank)
        coeff = _as_coefficient(coeff)
        if coeff:
            old = clean.get(exp)
            clean[exp] = coeff if old is None else _as_coefficient(old + coeff)
    return {e: c for e, c in clean.items() if c}


def former_polyvector_terms(rank, terms=None):
    """The former `PolyVector.__init__`, kept as the oracle of the one
    constructor; it dropped a term with a repeated generator unchecked."""
    _check_size("rank", rank)
    clean = {}
    for (exp, wedge_key), coeff in (terms or {}).items():
        exp = _exponent(exp, rank)
        for i in wedge_key:
            if type(i) is not int:
                raise TypeError(f"wedge index {i!r} is not an integer")
        wedge_key, sign = normalize_wedge(wedge_key)
        if sign == 0:
            continue
        if wedge_key and not (1 <= wedge_key[0] and wedge_key[-1] <= rank):
            raise ValueError(f"wedge indices {wedge_key} out of range for rank {rank}")
        coeff = _as_coefficient(coeff) if sign > 0 else -_as_coefficient(coeff)
        if coeff:
            key = (exp, wedge_key)
            old = clean.get(key)
            clean[key] = coeff if old is None else _as_coefficient(old + coeff)
    return {k: c for k, c in clean.items() if c}


def former_drops_unchecked(rank, terms):
    """Whether the former constructor dropped a term with a repeated
    generator that is out of range or has a bad coefficient: the inputs the
    bugfix changes."""
    for (_, wedge_key), coeff in terms.items():
        if all(type(i) is int for i in wedge_key) and len(set(wedge_key)) < len(wedge_key):
            if not all(1 <= i <= rank for i in wedge_key):
                return True
            try:
                _as_coefficient(coeff)
            except (TypeError, ValueError):
                return True
    return False


def outcome(build, rank, terms):
    """The terms with each coefficient's type (Fraction(2, 1) == 2), or the
    exception's type and message."""
    try:
        got = build(rank, terms)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return {key: (type(c), c) for key, c in got.items()}


def raw_coefficient(rng):
    kind = rng.random()
    if kind < 0.3:
        return rng.randint(-3, 3)
    if kind < 0.55:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    if kind < 0.97:
        return rng.choice([Fraction(3, 2), -2, Fraction(4, 2), Fraction(6, 3), 0, Fraction(-1, 3), 5])
    return rng.choice([0.5, True, 1j])


def raw_exponent(rng, rank):
    exp = [rng.randint(-1, 1) for _ in range(rank)]
    kind = rng.random()
    if kind < 0.02:
        return tuple(exp) + (0,)
    if kind < 0.04:
        return tuple(exp[:-1]) + (rng.choice([1.0, Fraction(2), True]),)
    return tuple(exp)


def raw_wedge(rng, rank):
    indices = [rng.randint(1, rank) for _ in range(rng.randint(0, min(rank + 1, 3)))]
    kind = rng.random()
    if kind < 0.04:
        indices.append(rng.choice([0, rank + 1]))
    elif kind < 0.06:
        indices.append(1.0)
    return tuple(indices)


def range_twin(exp):
    """A `range` that iterates to the exponent `exp`, where one does: a
    second key for the same exponent, so the two terms must merge."""
    if not all(type(e) is int for e in exp):
        return None
    step = exp[1] - exp[0] if len(exp) > 1 else 1
    twin = range(exp[0], exp[-1] + step, step) if step else ()
    return twin if tuple(twin) == exp else None


def raw_inputs(rng, with_wedge):
    """Raw constructor inputs: unsorted and repeated wedges, keys that
    cancel (a `range` twin of an exponent, a swapped wedge), int and
    Fraction coefficients, and now and then a bad rank, key or
    coefficient."""
    rank = rng.choice([1, 2, 3] * 20 + [0, True])
    size = rank if type(rank) is int and rank > 0 else 1
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exp = raw_exponent(rng, size)
        key = (exp, raw_wedge(rng, size)) if with_wedge else exp
        coeff = raw_coefficient(rng)
        terms[key] = coeff
        if rng.random() < 0.3 and type(coeff) is int:
            if with_wedge:
                w = key[1]
                terms[exp, w[::-1]] = coeff * (-1 if len(w) % 4 in (0, 1) else 1)
            elif (twin := range_twin(exp)) is not None:
                terms[twin] = -coeff
    return rank, terms


@pytest.mark.parametrize(
    "cls, former",
    [(LaurentPoly, former_laurent_terms), (PolyVector, former_polyvector_terms)],
    ids=["laurent", "polyvector"],
)
def test_one_constructor_equals_the_former_constructors(cls, former):
    rng = random.Random(f"one-constructor/{cls.__name__}")
    compared = errors = merged = left_out = 0
    for _ in range(500):
        rank, terms = raw_inputs(rng, cls is PolyVector)
        got = outcome(lambda r, t: cls(r, t).terms, rank, terms)
        if cls is PolyVector and former_drops_unchecked(rank, terms):
            assert type(got) is tuple, (rank, terms)
            left_out += 1
            continue
        assert got == outcome(former, rank, terms), (rank, terms)
        compared += 1
        errors += type(got) is tuple
        merged += type(got) is dict and len(got) < len(terms)
    assert compared >= 450 and errors > 30 and merged > 100, (compared, errors, merged)
    assert left_out > 0 if cls is PolyVector else left_out == 0
