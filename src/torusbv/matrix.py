"""Exact dense matrices as lists of rows of Fractions.

The matrices of the representation layer are mostly zero (diagonal,
sub- or super-diagonal, elementary), so the product and the entrywise
operations skip every term known to vanish.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def zeros(n: int):
    """The n x n zero matrix."""
    return [[_ZERO] * n for _ in range(n)]


def product(a, b):
    """ab, accumulated row by row over the nonzero a[i][k] and b[k][j] only;
    an entry with no nonzero term is Fraction(0).  Shapes follow the dense
    definition: row i of a pairs with the first len(a[i]) rows of b, and
    the product has as many columns as the shortest row of b."""
    ncols = min(map(len, b), default=0)
    sparse_b = [[(j, y) for j, y in enumerate(row[:ncols]) if y] for row in b]
    out = []
    for row in a:
        out_row = [_ZERO] * ncols
        for x, b_row in zip(row, sparse_b):
            if x:
                for j, y in b_row:
                    v = out_row[j]
                    out_row[j] = x * y if v is _ZERO else v + x * y
        out.append(out_row)
    return out


def add(a, b):
    return [[x + y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, c):
    return [[c * x if x else x for x in row] for row in a]


def commutator(a, b):
    """ab - ba."""
    return [
        [x - y if y else x for x, y in zip(ra, rb)]
        for ra, rb in zip(product(a, b), product(b, a))
    ]


def rank(rows) -> int:
    """Rank of a list of Fraction row vectors by Gaussian elimination."""
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
