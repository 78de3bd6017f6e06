"""Exact rank over the rationals.

`rank` takes sparse rows {column: int or Fraction}, so vectors such as
PolyVector.terms go in as they are, with no shared coordinate basis built
first.
"""

from __future__ import annotations

from fractions import Fraction


def rank(rows) -> int:
    """Rank of sparse rows: the number of pivot rows `_pivot_rows` keeps."""
    return len(_pivot_rows(rows))


def _pivot_rows(rows) -> list:
    """The (column, row) pivots of sparse rows, by elimination on arrival.

    Each row is reduced by the pivot rows kept so far, in the order they
    were kept, and what is left, if anything, is kept as a new pivot row
    scaled to 1 at its first column p: an int entry v that the int p
    divides becomes v // p, any other Fraction(v, p) (`/` on two ints is
    float division), the coefficient rule of `laurent._as_coefficient`.  A
    pivot row has no entry in any earlier pivot's column, so
    one pass in that order clears them all.  Columns may be any hashable
    keys; zero entries count as absent."""
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
            pivots.append((col, {
                k: v // p if type(v) is type(p) is int and not v % p else Fraction(v, p)
                for k, v in row.items()
            }))
    return pivots
