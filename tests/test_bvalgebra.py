import inspect
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from torusbv.bvalgebra import (
    PolyVector,
    bv_delta,
    bv_delta_divergence,
    gerstenhaber_bracket,
    normalize_wedge,
    wedge,
)
from torusbv.laurent import LaurentPoly, SparseStore
from torusbv.parsing import format_polyvector, parse_polyvector
from torusbv import bvalgebra, suites
from torusbv.suites import (
    bv_axiom_suite,
    bv_derived_bracket,
    random_homogeneous_polyvector,
    random_polyvector,
    witt_closed_form_suite,
)


def degrees(p):
    """The cohomological degrees in which p has terms, ascending."""
    return sorted({len(w) for (_, w) in p.terms})


def degree_part(p, k):
    """The degree-k part of p."""
    return PolyVector._raw(p.rank, {key: c for key, c in p.terms.items() if len(key[1]) == k})


def test_normalize_wedge_sorts_with_sign():
    assert normalize_wedge((2, 1)) == ((1, 2), -1)
    assert normalize_wedge((1, 2)) == ((1, 2), 1)
    assert normalize_wedge((3, 1, 2)) == ((1, 2, 3), 1)
    assert normalize_wedge((2, 1, 3)) == ((1, 2, 3), -1)


def test_normalize_wedge_repeat_kills_term():
    _, sign = normalize_wedge((1, 1))
    assert sign == 0


def insertion_sort_wedge(indices):
    """The former `normalize_wedge`: an insertion sort that flips the sign
    at every transposition, then sign 0 if two neighbours are equal."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def test_normalize_wedge_matches_insertion_sort_on_every_short_word():
    words = [w for n in range(6) for w in product(range(1, 6), repeat=n)]
    assert len(words) == 3906
    signs = {-1: 0, 0: 0, 1: 0}
    for w in words:
        got = normalize_wedge(w)
        assert got == insertion_sort_wedge(w), w
        assert type(got[0]) is tuple and type(got[1]) is int
        signs[got[1]] += 1
    # repeats, odd and even permutations all occur many times
    assert min(signs.values()) > 100
    assert normalize_wedge([3, 1, 2]) == ((1, 2, 3), 1)


def test_theta_squared_is_zero():
    theta = PolyVector.theta(1, 1)
    assert wedge(theta, theta).is_zero()


def test_koszul_sign_degree_one_swap():
    t1 = PolyVector.theta(2, 1)
    t2 = PolyVector.theta(2, 2)
    assert wedge(t1, t2) == PolyVector.monomial(2, (0, 0), (1, 2))
    assert wedge(t2, t1) == PolyVector.monomial(2, (0, 0), (1, 2)).scale(-1)


def test_wedge_with_function():
    z2 = PolyVector.monomial(1, (2,), ())
    z3t = PolyVector.monomial(1, (3,), (1,))
    assert wedge(z2, z3t) == PolyVector.monomial(1, (5,), (1,))


def test_wedge_graded_commutativity_random():
    rng = random.Random(5)
    for _ in range(50):
        rank = rng.choice([1, 2, 3])
        a = random_polyvector(rng, rank)
        b = random_polyvector(rng, rank)
        for ka in degrees(a):
            pa = degree_part(a, ka)
            for kb in degrees(b):
                pb = degree_part(b, kb)
                sign = -1 if (ka * kb) % 2 else 1
                assert wedge(pa, pb) == wedge(pb, pa).scale(sign)


def test_bv_delta_on_xi():
    # Delta(z^5 theta) = 5 z^5
    assert bv_delta(PolyVector.xi(1, (5,), 1)) == PolyVector.monomial(1, (5,), ()).scale(5)


def test_bv_delta_kills_constant_field():
    assert bv_delta(PolyVector.theta(1, 1)).is_zero()


def test_bv_delta_rank2_two_vector():
    # Delta(z^(1,2) theta1^theta2) = z^(1,2) (theta2 - 2 theta1)
    src = PolyVector.monomial(2, (1, 2), (1, 2))
    want = PolyVector.monomial(2, (1, 2), (2,)) + PolyVector.monomial(2, (1, 2), (1,)).scale(-2)
    assert bv_delta(src) == want
    assert bv_delta_divergence(src) == want


def test_divergence_matches_vector_field_picture():
    for n in range(-3, 4):
        src = PolyVector.monomial(1, (n,), (1,))
        assert bv_delta_divergence(src) == PolyVector.monomial(1, (n,), ()).scale(n)


def test_bv_vanishes_on_functions():
    rng = random.Random(6)
    for _ in range(20):
        rank = rng.choice([1, 2, 3])
        p = random_homogeneous_polyvector(rng, rank, 0)
        assert bv_delta(p).is_zero()
        assert bv_delta_divergence(p).is_zero()


def test_bv_square_zero_random():
    rng = random.Random(7)
    for _ in range(40):
        rank = rng.choice([1, 2, 3])
        p = random_polyvector(rng, rank)
        assert bv_delta(bv_delta(p)).is_zero()


def test_two_bv_paths_agree_random():
    rng = random.Random(8)
    for _ in range(40):
        rank = rng.choice([1, 2, 3])
        p = random_polyvector(rng, rank)
        assert bv_delta(p) == bv_delta_divergence(p)


def test_bracket_on_witt_generators():
    # [xi_n, xi_m] = (m - n) xi_{n+m}
    xi = lambda n: PolyVector.xi(1, (n,), 1)
    assert gerstenhaber_bracket(xi(1), xi(-1)) == xi(0).scale(-2)
    assert gerstenhaber_bracket(xi(2), xi(3)) == xi(5)


def test_bracket_on_module_element():
    # [xi_i, z^j] = j z^{i+j}
    xi2 = PolyVector.xi(1, (2,), 1)
    z3 = PolyVector.monomial(1, (3,), ())
    assert gerstenhaber_bracket(xi2, z3) == PolyVector.monomial(1, (5,), ()).scale(3)


def test_bracket_rank2_on_function():
    # [z^n theta_i, z^m] = m_i z^{n+m}
    x = PolyVector.monomial(2, (1, 0), (1,))
    f = PolyVector.monomial(2, (0, 1), ())
    assert gerstenhaber_bracket(x, f).is_zero()
    f2 = PolyVector.monomial(2, (2, 1), ())
    assert gerstenhaber_bracket(x, f2) == PolyVector.monomial(2, (3, 1), ()).scale(2)


def test_bracket_self_vanishes_on_vector_fields():
    x = PolyVector.monomial(2, (1, 0), (2,))
    assert gerstenhaber_bracket(x, x).is_zero()


def test_bracket_rank2_vector_fields():
    # [z^(1,0) theta2, z^(0,1) theta1] = z^(1,1) (theta1 - theta2), checked
    # against a hand computation with z1 z2 d2 and z1 z2 d1.
    x = PolyVector.monomial(2, (1, 0), (2,))
    y = PolyVector.monomial(2, (0, 1), (1,))
    want = PolyVector.monomial(2, (1, 1), (1,)) + PolyVector.monomial(2, (1, 1), (2,)).scale(-1)
    assert gerstenhaber_bracket(x, y) == want


def _sign(k):
    return -1 if k % 2 else 1


def test_graded_identities_random():
    rng = random.Random(9)
    for _ in range(25):
        rank = rng.choice([1, 2])
        x = random_polyvector(rng, rank)
        y = random_polyvector(rng, rank)
        z = random_polyvector(rng, rank)
        for kx in degrees(x):
            px = degree_part(x, kx)
            for ky in degrees(y):
                py = degree_part(y, ky)
                # antisymmetry: [x,y] = (-1)^{|x||y|} [y,x]
                assert gerstenhaber_bracket(px, py) == gerstenhaber_bracket(py, px).scale(
                    _sign(kx * ky)
                )
                for kz in degrees(z):
                    pz = degree_part(z, kz)
                    jac = (
                        gerstenhaber_bracket(gerstenhaber_bracket(px, py), pz).scale(_sign(kx * kz))
                        + gerstenhaber_bracket(gerstenhaber_bracket(py, pz), px).scale(_sign(ky * kx))
                        + gerstenhaber_bracket(gerstenhaber_bracket(pz, px), py).scale(_sign(kz * ky))
                    )
                    assert jac.is_zero()
                    # Poisson: [x, y^z] = [x,y]^z + (-1)^{(|x|-1)|y|} y^[x,z]
                    lhs = gerstenhaber_bracket(px, wedge(py, pz))
                    rhs = wedge(gerstenhaber_bracket(px, py), pz) + wedge(
                        py, gerstenhaber_bracket(px, pz)
                    ).scale(_sign((kx - 1) * ky))
                    assert lhs == rhs


def test_bv_generates_bracket_random():
    # [a,b] = Delta(a^b) - Delta(a)^b - (-1)^{|a|} a^Delta(b)
    rng = random.Random(10)
    for _ in range(25):
        rank = rng.choice([1, 2, 3])
        a = random_polyvector(rng, rank)
        b = random_polyvector(rng, rank)
        for ka in degrees(a):
            pa = degree_part(a, ka)
            direct = gerstenhaber_bracket(pa, b)
            built = (
                bv_delta(wedge(pa, b))
                + wedge(bv_delta(pa), b).scale(-1)
                + wedge(pa, bv_delta(b)).scale(-_sign(ka))
            )
            assert direct == built


def test_degree0_to_laurent_round_trip():
    p = LaurentPoly(2, {(1, -1): Fraction(2, 3), (0, 0): 1})
    assert PolyVector(2, {(e, ()): c for e, c in p.terms.items()}).degree0_to_laurent() == p


def bracket_parts(a, b):
    """The reference bracket: the Delta formula on each pair of homogeneous
    parts (a_k, b_l), one summand per pair."""
    return [
        bv_delta(wedge(pa, pb)) - wedge(bv_delta(pa), pb) - wedge(pa, bv_delta(pb)).scale(_sign(ka))
        for ka in degrees(a)
        for pa in [degree_part(a, ka)]
        for kb in degrees(b)
        for pb in [degree_part(b, kb)]
    ]


def oracle_operand(rng, rank):
    """Zero, degree 0 only, one degree >= 1, or mixed degrees; exponents in
    [-1, 1] so that terms of different parts often meet and cancel."""
    kind = rng.randrange(6)
    if kind == 0:
        return PolyVector.zero(rank)
    if kind == 1:
        return random_homogeneous_polyvector(rng, rank, 0, window=1)
    if kind == 2:
        return random_homogeneous_polyvector(rng, rank, rng.randint(1, rank), window=1)
    return random_polyvector(rng, rank, window=1)


def test_bracket_equals_sum_over_degree_pairs():
    """The one-pass bracket, and the bilinear Delta formula with the parity
    twist of `a` that `verify bv-axioms` checks it against, each against the
    per-degree-pair formula, on 2200 seeded pairs at ranks 1-4."""
    rng = random.Random(11)
    mixed = cancelled = zero = 0
    for rank in (1, 2, 3, 4):
        for n in range(550):
            a = oracle_operand(rng, rank)
            # every fifth pair brackets an operand with itself
            b = a if n % 5 == 0 else oracle_operand(rng, rank)
            parts = bracket_parts(a, b)
            want = sum(parts, PolyVector.zero(rank))
            got = gerstenhaber_bracket(a, b)
            assert got == want, (rank, format_polyvector(a), format_polyvector(b))
            assert bv_derived_bracket(a, b) == want, (rank, format_polyvector(a), format_polyvector(b))
            mixed += len(degrees(a)) > 1 and len(degrees(b)) > 1
            cancelled += sum(len(p.terms) for p in parts) > len(got.terms)
            zero += got.is_zero()
    assert mixed > 400 and cancelled > 150 and zero > 500


def assert_canonical(x):
    """A constructor's or the parser's store: each coefficient a nonzero
    int, or a Fraction whose denominator is not 1."""
    assert all(
        (type(c) is int or type(c) is Fraction and c.denominator != 1) and c != 0
        for c in x.terms.values()
    ), x.terms


def assert_exact(x):
    """A kernel's store, built through `_raw`: each coefficient a nonzero
    int or Fraction, never a float or a bool."""
    assert all(type(c) in (int, Fraction) and c != 0 for c in x.terms.values()), x.terms


def integer_polyvector(rng, rank):
    """Python-int coefficients; with half the wedges of degree >= 2 the same
    coefficient is also given under the wedge with its first two generators
    swapped, so the constructor cancels the pair."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exp = tuple(rng.randint(-1, 1) for _ in range(rank))
        w = tuple(rng.sample(range(1, rank + 1), rng.randint(0, rank)))
        c = rng.choice((-2, -1, 1, 2, 3))
        terms[(exp, w)] = c
        if len(w) >= 2 and rng.random() < 0.5:
            terms[(exp, (w[1], w[0]) + w[2:])] = c
    return PolyVector(rank, terms)


def test_every_stored_coefficient_is_a_nonzero_exact_rational():
    """Sparse sums store the first coefficient written to a key, so a zero
    could slip through where no 0 seeds the sum; constructors and the parser
    also keep the canonical form where the terms they merge sum to an
    integer."""
    rng = random.Random(12)
    nonempty = 0
    for _ in range(400):
        rank = rng.randint(1, 4)
        a = integer_polyvector(rng, rank)
        b = integer_polyvector(rng, rank)
        text = f"{format_polyvector(a)} + 2*t1 - {format_polyvector(b)} + 3 - 2*t1 - 1"
        exp = tuple(rng.randint(-1, 1) for _ in range(rank))
        # a zero coefficient is dropped, an integral Fraction stored as its int
        p = LaurentPoly(rank, {exp: Fraction(0), (1,) * rank: Fraction(6, 2), (0,) * rank: 1})
        q = LaurentPoly(rank, {(1,) * rank: -3, (-1,) * rank: 5})
        # at rank >= 2, Delta(z^e (e_r theta_1 - e_1 theta_r)) cancels to 0
        e = tuple(rng.choice((-2, -1, 1, 2)) for _ in range(rank))
        free = PolyVector(rank, {(e, (1,)): e[-1], (e, (rank,)): -e[0]}) + a
        parsed = parse_polyvector(text, rank)
        kernels = [wedge(a, b), bv_delta(free), bv_delta_divergence(free), gerstenhaber_bracket(a, b)]
        for x in (a, b, parsed, p, q):
            assert_canonical(x)
        for x in kernels + [
            a + b, a - b, a - a, a.scale(2), a.scale(-1), a.scale(Fraction(1, 2)),
            gerstenhaber_bracket(a, a), p + q, p - q, p.scale(-3), p * q, q * q,
        ]:
            assert_exact(x)
        nonempty += all(kernels) and bool(parsed)
    assert nonempty > 50


SIGN_PATH_COEFFS = (Fraction(-3, 2), Fraction(2), Fraction(5, 3), Fraction(-7), Fraction(1, 4))


def sign_path_failures(bracket):
    """`bracket` on c z^n theta_S and c' z^m theta_T against the Delta
    formula of `bracket_parts`, for every pair of wedge sets (S, T) at ranks
    1-4 (256 pairs at rank 4), three seeded exponent pairs each.  Entries lie
    in [-2, 2], so about one in five is zero, and no coefficient is +-1.
    Returns the failing inputs and the number of pairs in which a contracted
    index meets a zero entry, and in which the bracket is nonzero."""
    rng = random.Random(13)
    failures = []
    zero_entry = nonzero = 0
    for rank in (1, 2, 3, 4):
        sets = wedge_sets(rank)
        for s in sets:
            for t in sets:
                for _ in range(3):
                    n = tuple(rng.randint(-2, 2) for _ in range(rank))
                    m = tuple(rng.randint(-2, 2) for _ in range(rank))
                    a = PolyVector.monomial(rank, n, s, rng.choice(SIGN_PATH_COEFFS))
                    b = PolyVector.monomial(rank, m, t, rng.choice(SIGN_PATH_COEFFS))
                    want = sum(bracket_parts(a, b), PolyVector.zero(rank))
                    if bracket(a, b) != want:
                        failures.append((rank, format_polyvector(a), format_polyvector(b)))
                    zero_entry += 0 in [m[i - 1] for i in s] + [n[i - 1] for i in t]
                    nonzero += bool(want)
    return failures, zero_entry, nonzero


def test_bracket_takes_every_sign_path():
    failures, zero_entry, nonzero = sign_path_failures(gerstenhaber_bracket)
    assert failures == []
    assert zero_entry > 300 and nonzero > 600


def wedge_sets(rank):
    """Every wedge set of {1, ..., rank}, as a canonical tuple."""
    return [w for k in range(rank + 1) for w in combinations(range(1, rank + 1), k)]


def brute_schouten_table(s, t):
    """The table `_schouten_table(s, t)` should hold, by removing each letter
    of the word s + t in turn: the p-th letter has parity p, is contracted
    by m when it lies in s, and the rest of the word is sorted by
    `normalize_wedge`."""
    word = s + t
    entries = []
    for p, i in enumerate(word):
        w, sign = normalize_wedge(word[:p] + word[p + 1:])
        if sign:
            entries.append((w, p < len(s), i - 1, sign * _sign(p)))
    return tuple(entries)


def test_schouten_table_matches_brute_force():
    """Every pair of wedge sets at ranks 1-5 (1024 pairs)."""
    sets = wedge_sets(5)
    empty = 0
    for s in sets:
        for t in sets:
            table = bvalgebra._schouten_table(s, t)
            assert table == brute_schouten_table(s, t), (s, t)
            empty += not table
    # empty exactly when S and T meet in two or more indices, or both are empty
    assert empty == sum(len(set(s) & set(t)) >= 2 or not s + t for s in sets for t in sets)


def test_tables_are_keyed_by_absolute_indices():
    """One entry per wedge pair serves operands of rank 2 and of rank 4."""
    pairs = [
        (PolyVector.monomial(2, (1, 2), (1,), 3), PolyVector.monomial(2, (2, -1), (2,), Fraction(1, 2))),
        (
            PolyVector.monomial(4, (1, 2, 0, -1), (1,), 3),
            PolyVector.monomial(4, (2, -1, 1, 1), (2,), Fraction(1, 2)),
        ),
    ]
    brackets = [sum(bracket_parts(x, y), PolyVector.zero(x.rank)) for x, y in pairs]
    products = [PolyVector.monomial(2, (3, 1), (1, 2), Fraction(3, 2)),
                PolyVector.monomial(4, (3, 1, 1, 0), (1, 2), Fraction(3, 2))]
    for table in (bvalgebra._schouten_table, bvalgebra._wedge_table):
        table.cache_clear()
    for (x, y), bracket, product in zip(pairs, brackets, products):
        assert gerstenhaber_bracket(x, y) == bracket
        assert wedge(x, y) == product
    for table in (bvalgebra._schouten_table, bvalgebra._wedge_table):
        info = table.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1), table


def wedge_failures(wedge):
    """`wedge` against a reference built monomial by monomial through the
    validating constructor, which sorts S + T with its own sign: on
    c z^n theta_S and c' z^m theta_T for every pair of wedge sets (S, T) at
    ranks 1-4, and at each rank on two operands that hold every wedge set."""
    rng = random.Random(14)
    failures = []
    for rank in (1, 2, 3, 4):
        sets = wedge_sets(rank)

        def operand(wedges):
            return {
                (tuple(rng.randint(-2, 2) for _ in range(rank)), w): rng.choice(SIGN_PATH_COEFFS)
                for w in wedges
            }

        pairs = [(operand([s]), operand([t])) for s in sets for t in sets]
        pairs.append((operand(sets), operand(sets)))
        for a, b in pairs:
            want = PolyVector.zero(rank)
            for (n, s), ca in a.items():
                for (m, t), cb in b.items():
                    want += PolyVector(rank, {(tuple(x + y for x, y in zip(n, m)), s + t): ca * cb})
            if wedge(PolyVector(rank, a), PolyVector(rank, b)) != want:
                failures.append((rank, a, b))
    return failures


def test_wedge_matches_constructor_reference():
    assert wedge_failures(wedge) == []


# each mutant is one edit of a kernel table's source: (table, text, replacement)
KERNEL_MUTANTS = {
    "drops_sign_of_S": ("_schouten_table", "(len(s) + j) % 2", "j % 2"),
    "contracts_S_by_n": ("_schouten_table", "(w, True, i - 1,", "(w, False, i - 1,"),
    "flips_wedge_sign": (
        "_wedge_table",
        "return normalize_wedge(w1 + w2)",
        "w, sign = normalize_wedge(w1 + w2)\n    return w, -sign",
    ),
}
KERNEL_OF = {"_schouten_table": "gerstenhaber_bracket", "_wedge_table": "wedge"}


def planted_kernel(table, text, replacement):
    """The kernel that reads `table`, with one edit planted in the table's
    source.  Table and kernel are exec'd into one namespace, so the planted
    kernel reads the planted table, through a cache of its own."""
    source = inspect.getsource(getattr(bvalgebra, table))
    assert source.count(text) == 1
    kernel = KERNEL_OF[table]
    namespace = dict(vars(bvalgebra))
    exec(source.replace(text, replacement), namespace)
    exec(inspect.getsource(getattr(bvalgebra, kernel)), namespace)
    assert namespace[table] is not getattr(bvalgebra, table)
    assert namespace[table].cache_info().currsize == 0
    return namespace[kernel]


@pytest.mark.parametrize(
    "name", sorted(n for n, (table, _, _) in KERNEL_MUTANTS.items() if table == "_schouten_table")
)
def test_kernel_mutant_fails_sign_paths_and_suite(name, monkeypatch):
    mutant = planted_kernel(*KERNEL_MUTANTS[name])
    failures, _, _ = sign_path_failures(mutant)
    assert failures
    monkeypatch.setattr(suites, "gerstenhaber_bracket", mutant)
    verdicts = {c["name"]: c["ok"] for c in bv_axiom_suite()["checks"]}
    assert verdicts["bracket_equals_bv_derived"] is False
    assert [c["ok"] for c in witt_closed_form_suite()["checks"]] == [False, False]


def test_wedge_table_mutant_fails_reference_and_suite(monkeypatch):
    mutant = planted_kernel(*KERNEL_MUTANTS["flips_wedge_sign"])
    assert wedge_failures(mutant)
    monkeypatch.setattr(suites, "wedge", mutant)
    verdicts = {c["name"]: c["ok"] for c in bv_axiom_suite()["checks"]}
    assert verdicts["bracket_equals_bv_derived"] is False


def test_witt_closed_form_oracle_uses_no_library_arithmetic(monkeypatch):
    """The expected side of the Witt check is built from the formula alone,
    so the check still passes when the store's linear operations raise."""
    def refuse(*args):
        raise AssertionError("library arithmetic in the Witt oracle")

    for name in ("scale", "__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(SparseStore, name, refuse)
    assert suites._witt_closed_form_holds(3, 1)
