"""Exact matrices over the rationals.

Square matrices are lists of rows of Fractions.  Those of the
representation layer are mostly zero (diagonal, sub- or super-diagonal,
elementary), so the product and the commutator skip every term
known to vanish.  `rank` takes sparse rows {column: Fraction} instead, so
vectors such as PolyVector.terms go in as they are, with no shared
coordinate basis built first.
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


def commutator(a, b):
    """ab - ba."""
    return [
        [x - y if y else x for x, y in zip(ra, rb)]
        for ra, rb in zip(product(a, b), product(b, a))
    ]


def rank(rows) -> int:
    """Rank of sparse rows {column: Fraction}, by elimination on arrival.

    Each row is reduced by the pivot rows kept so far, in the order they
    were kept, and what is left, if anything, is kept as a new pivot row
    scaled to 1 at its first column.  A pivot row has no entry in any
    earlier pivot's column, so one pass in that order clears them all.
    Columns may be any hashable keys; zero entries count as absent."""
    pivots = []
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        for col, pivot_row in pivots:
            c = row.get(col)
            if c:
                for k, v in pivot_row.items():
                    old = row.get(k)
                    new = -c * v if old is None else old - c * v
                    if new:
                        row[k] = new
                    else:
                        del row[k]
        if row:
            col, p = next(iter(row.items()))
            pivots.append((col, {k: v / p for k, v in row.items()}))
    return len(pivots)
