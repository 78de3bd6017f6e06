"""Exact multivariate Laurent polynomials over the rationals, and the sparse
term store they share with polyvector fields.

A polynomial of rank r is a finitely supported map from exponent vectors
in Z^r to nonzero rationals, each an int when it is integral and a Fraction
otherwise (`_as_coefficient`).  All arithmetic is exact; no zero
coefficient is ever stored, so equality is structural.

Sparse sums here and in `bvalgebra` store the first coefficient written to
a key and add later ones to it: no zero seed, one operation a term.
"""

from __future__ import annotations

import re
from fractions import Fraction


class RankMismatchError(ValueError):
    """Raised when combining elements of different ambient rank."""


def _as_coefficient(c) -> int | Fraction:
    """The canonical coefficient: an int when `c` is integral, else a
    Fraction (a string goes through Fraction); bools, floats and complex
    numbers carry no exact rational value and raise TypeError.  Kernels take
    both: an int has `numerator` and `denominator` like the equal Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, (bool, float, complex)):
        raise TypeError(f"inexact coefficient {c!r}; use an int, a Fraction or a string like '1/10'")
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _check_int(name: str, value) -> None:
    """An integer argument: a bool, a float or a Fraction raises TypeError
    instead of being used as a number."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_size(name: str, value: int) -> None:
    """A rank, window or case count: a bool or non-int raises TypeError, and
    a value below 1, which would make a check vacuous, ValueError."""
    _check_int(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


_INT_STRING = re.compile(r"-?\d+")  # an exponent, as parsing._FACTOR spells it


def _integer(e) -> int:
    """An exponent entry: an int, or a string that spells one as the
    polyvector grammar does, an optional '-' and digits such as '3' or '-3'
    ('+', spaces or '_' separators raise ValueError).  A float, a
    Fraction or a bool raises TypeError instead of being truncated."""
    if isinstance(e, str):
        if not _INT_STRING.fullmatch(e):
            raise ValueError(f"exponent entry {e!r} is not an integer string like '3' or '-3'")
        return int(e)
    if isinstance(e, int) and not isinstance(e, bool):
        return int(e)
    raise TypeError(f"exponent entry {e!r} is not an integer; use an int or a string like '3'")


def _exponent(exp, rank: int) -> tuple:
    exp = tuple(exp)
    for e in exp:
        if type(e) is not int:
            exp = tuple(map(_integer, exp))
            break
    if len(exp) != rank:
        raise ValueError(f"exponent {exp} has length {len(exp)}, expected {rank}")
    return exp


class SparseStore:
    """A finitely supported map {canonical key: nonzero int or Fraction} of
    a fixed rank: the storage, linear structure, equality and printing
    shared by LaurentPoly and PolyVector.

    Each subclass validates its own key layout and coefficients in
    `__init__` and says how a key splits into (exponent, wedge) in
    `_exp_wedge`.  Results of the linear operations keep the class of the
    left operand, and elements of different classes are never equal.
    """

    __slots__ = ("rank", "terms")

    @classmethod
    def _raw(cls, rank: int, terms: dict):
        """Internal fast path: keys already canonical, coefficients already
        ints or Fractions, kept as they are; only zero filtering is done."""
        obj = object.__new__(cls)
        obj.rank = rank
        obj.terms = {k: c for k, c in terms.items() if c}
        return obj

    @classmethod
    def zero(cls, rank: int):
        return cls(rank, {})

    def _check_rank(self, other) -> None:
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_rank(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            old = terms.get(key)
            terms[key] = coeff if old is None else old + coeff
        return self._raw(self.rank, terms)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_rank(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            old = terms.get(key)
            terms[key] = -coeff if old is None else old - coeff
        return self._raw(self.rank, terms)

    def __neg__(self):
        return self._raw(self.rank, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = _as_coefficient(c)
        return self._raw(self.rank, {k: c * v for k, v in self.terms.items()})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        from .parsing import format_polyvector

        return format_polyvector(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rank={self.rank}, {self.__str__()!r})"


class LaurentPoly(SparseStore):
    """Sparse Laurent polynomial K[z1^±1, ..., zr^±1] with K = Q.

    Terms are stored as {exponent tuple: int or Fraction}, keys sorted
    lexicographically for deterministic iteration and printing.
    """

    __slots__ = ()

    def __init__(self, rank: int, terms=None):
        _check_size("rank", rank)
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = _exponent(exp, rank)
            coeff = _as_coefficient(coeff)
            if coeff:
                old = clean.get(exp)
                clean[exp] = coeff if old is None else _as_coefficient(old + coeff)
        self.rank = rank
        self.terms = {e: c for e, c in clean.items() if c}

    @staticmethod
    def _exp_wedge(exp):
        return exp, ()

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls.monomial(rank, (0,) * rank)

    @classmethod
    def monomial(cls, rank: int, exp, coeff=1) -> "LaurentPoly":
        return cls(rank, {tuple(exp): _as_coefficient(coeff)})

    # -- ring structure --------------------------------------------------

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not LaurentPoly:
            return NotImplemented
        self._check_rank(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                old = terms.get(e)
                terms[e] = c if old is None else old + c
        return LaurentPoly._raw(self.rank, terms)

    __rmul__ = __mul__
