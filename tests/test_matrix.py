import random
from fractions import Fraction

from torusbv import matrix


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


def dense_rank(rows):
    """Rank of dense Fraction rows by Gaussian elimination: the oracle of
    the sparse `matrix.rank`."""
    rows = [list(row) for row in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col] / pv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def sparse_rows(rows, keep_zeros=False):
    return [{j: v for j, v in enumerate(row) if keep_zeros or v} for row in rows]


def test_rank_matches_dense_elimination():
    rng = random.Random(15)
    full = 0
    for _ in range(600):
        p, q = rng.randint(1, 7), rng.randint(1, 7)
        rows = random_matrix(rng, p, q, rng.choice((0.0, 0.5, 0.85)))
        if p > 1 and rng.random() < 0.4:
            # a combination of two earlier rows makes the last one dependent
            a, b = rng.sample(range(p - 1), 2) if p > 2 else (0, 0)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows[-1] = [x + c * y for x, y in zip(rows[a], rows[b])]
        want = dense_rank(rows)
        assert matrix.rank(sparse_rows(rows)) == want
        assert matrix.rank(sparse_rows(rows, keep_zeros=True)) == want
        full += want == min(p, q)
    assert 100 < full < 600


def test_rank_of_empty_and_zero_rows():
    assert matrix.rank([]) == 0
    assert matrix.rank([{}, {}]) == 0
    assert matrix.rank([{0: Fraction(0), 3: Fraction(0)}, {}]) == 0
    assert matrix.rank([{}, {2: Fraction(5)}, {2: Fraction(0)}]) == 1


def test_rank_of_dependent_rows():
    x, y = {0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1), 2: Fraction(-1)}
    assert matrix.rank([x, y, {k: 3 * x.get(k, 0) - y.get(k, 0) for k in (0, 1, 2)}]) == 2
    assert matrix.rank([x, {k: -v for k, v in x.items()}, x]) == 1
    # reducing the third row by the first fills in the second's pivot column
    rows = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(1)}]
    assert matrix.rank(rows) == dense_rank([[Fraction(v) for v in row] for row in ([1, 1], [0, 1], [1, 0])]) == 2


def test_rank_with_tuple_keys_and_no_shared_basis():
    a = {((1, 0), (1,)): Fraction(1), ((0, 0), (2,)): Fraction(-1)}
    b = {((0, 0), (2,)): Fraction(2)}
    c = {((1, 0), (1,)): Fraction(-3)}
    assert matrix.rank([a, b, c]) == 2
    assert matrix.rank([a, b, c, {((0, 1), ()): Fraction(1, 2)}]) == 3
    assert matrix.rank([a, b]) == 2 and matrix.rank([a]) == 1


def test_rank_of_int_rows_is_exact():
    # row 3 = 7 row 1 + 5 row 2; scaling a pivot row by `/` on two ints
    # gives floats, and the third row then fails to cancel exactly
    rows = [{0: 3, 1: 4, 2: -8}, {0: -1, 1: 7, 2: 6}, {0: 16, 1: 63, 2: -26}]
    assert matrix.rank(rows) == 2
    assert matrix.rank(rows[:2]) == 2
    pivots = matrix._pivot_rows(rows)
    assert [col for col, _ in pivots] == [0, 1]
    for _, pivot_row in pivots:
        assert all(type(v) in (int, Fraction) for v in pivot_row.values()), pivot_row


def test_pivot_entries_are_exact_on_mixed_rows():
    rng = random.Random(16)
    for _ in range(200):
        rows = [
            {j: rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
             for j in range(rng.randint(1, 5))}
            for _ in range(rng.randint(1, 5))
        ]
        pivots = matrix._pivot_rows(rows)
        assert len(pivots) == matrix.rank(rows) == dense_rank(
            [[Fraction(row.get(j, 0)) for j in range(5)] for row in rows]
        )
        for col, pivot_row in pivots:
            assert pivot_row[col] == 1
            assert all(type(v) in (int, Fraction) and v for v in pivot_row.values()), pivot_row
