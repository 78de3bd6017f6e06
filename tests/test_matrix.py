import random
from fractions import Fraction

from torusbv import matrix


def dense_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def random_matrix(rng, rows, cols, zero_share):
    return [
        [
            Fraction(0)
            if rng.random() < zero_share
            else Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


def assert_same(got, want):
    assert got == want
    assert all(type(v) is Fraction for row in got for v in row)


def test_product_matches_dense_definition_on_zero_heavy_matrices():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 9)
        a = random_matrix(rng, n, n, 0.85)
        b = random_matrix(rng, n, n, 0.85)
        assert_same(matrix.product(a, b), dense_product(a, b))


def test_product_matches_dense_definition_on_dense_matrices():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, n, 0.0)
        b = random_matrix(rng, n, n, 0.1)
        assert_same(matrix.product(a, b), dense_product(a, b))


def test_product_matches_dense_definition_on_rectangular_matrices():
    rng = random.Random(13)
    for _ in range(200):
        p, q, r = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, p, q, rng.choice((0.0, 0.5, 0.9)))
        b = random_matrix(rng, q, r, rng.choice((0.0, 0.5, 0.9)))
        got = matrix.product(a, b)
        assert len(got) == p and all(len(row) == r for row in got)
        assert_same(got, dense_product(a, b))


def test_product_cancellation_and_all_zero_rows():
    a = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(0)]]
    b = [[Fraction(2), Fraction(0)], [Fraction(-2), Fraction(0)]]
    assert_same(matrix.product(a, b), [[Fraction(0)] * 2] * 2)


def test_product_with_empty_operands():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert matrix.product(a, []) == dense_product(a, []) == [[], []]
    assert matrix.product([], a) == dense_product([], a) == []
    assert matrix.product(a, [[], []]) == dense_product(a, [[], []]) == [[], []]


def test_entrywise_operations_match_dense_definitions():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randint(1, 7)
        a = random_matrix(rng, n, n, 0.7)
        b = random_matrix(rng, n, n, 0.7)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert_same(matrix.add(a, b), [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
        assert_same(matrix.scale(a, c), [[c * x for x in row] for row in a])
        ab, ba = dense_product(a, b), dense_product(b, a)
        assert_same(
            matrix.commutator(a, b),
            [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)],
        )
