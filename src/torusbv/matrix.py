"""Exact dense matrices as lists of rows of Fractions."""

from __future__ import annotations

from fractions import Fraction


def zeros(n: int):
    """The n x n zero matrix."""
    return [[Fraction(0)] * n for _ in range(n)]


def product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, c):
    return [[c * x for x in row] for row in a]


def commutator(a, b):
    """ab - ba."""
    return [
        [x - y for x, y in zip(ra, rb)]
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
