"""Exact multivariate Laurent polynomials over the rationals, and the sparse
term store they share with polyvector fields.

A polynomial of rank r is a finitely supported map from exponent vectors
in Z^r to nonzero rationals.  The constructor, the parser and `rho_apply`
store each as an int when it is integral, else a Fraction (`_as_coefficient`);
other results (`+`, `scale`, kernels) may hold an integral Fraction, which
equals, hashes, prints and serialises as its int.  All arithmetic is exact;
no zero coefficient is ever stored, so equality is structural.  The
constructors take numbers only: ints and Fractions as coefficients, ints
as exponent entries; text is read by `parsing` alone.

Sparse sums here and in `bvalgebra` store the first coefficient written to
a key and add later ones to it: no zero seed, one operation a term.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add


class RankMismatchError(ValueError):
    """Raised when combining elements of different ambient rank."""


def _as_coefficient(c) -> int | Fraction:
    """The canonical coefficient: an int when `c` is integral, else a
    Fraction.  Bools, floats and complex numbers carry no exact rational
    value, and text is read only by `parsing`; all of them raise TypeError.
    Kernels take both results: an int has `numerator` and `denominator`
    like the equal Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, (bool, float, complex, str)):
        raise TypeError(f"inexact coefficient {c!r}; use an int or a Fraction")
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _check_int(name: str, value) -> None:
    """An integer argument: a bool, a float, a Fraction or a string raises
    TypeError instead of being used as a number."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_size(name: str, value: int) -> None:
    """A rank, window or case count: a bool or non-int raises TypeError, and
    a value below 1, which would make a check vacuous, ValueError."""
    _check_int(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _require_function(what: str, m) -> None:
    """A value in the Laurent module: anything else, such as a degree-0
    PolyVector, whose keys are not exponents, raises TypeError."""
    if type(m) is not LaurentPoly:
        raise TypeError(f"{what} must be a LaurentPoly, got {type(m).__name__}")


def _exponent(exp, rank: int) -> tuple:
    """An exponent vector as a tuple of `rank` ints; a bool, float,
    Fraction or string entry raises TypeError instead of being used."""
    exp = tuple(exp)
    for e in exp:
        if type(e) is not int:
            _check_int("exponent entry", e)
    if len(exp) != rank:
        raise ValueError(f"exponent {exp} has length {len(exp)}, expected {rank}")
    return exp


def _merge(terms) -> dict:
    """Terms from `(canonical key, sign, int or Fraction)` triples: sign 0 drops
    a term, -1 negates it; canonical sums per key, zero sums dropped."""
    out = {}
    for key, sign, c in terms:
        if sign < 0:
            c = -c
        elif not sign:
            continue
        old = out.get(key)
        out[key] = c if old is None else _as_coefficient(old + c)
    return out if all(out.values()) else {k: c for k, c in out.items() if c}


class SparseStore:
    """A finitely supported map {canonical key: nonzero int or Fraction} of
    a fixed rank: the storage, linear structure, equality and printing
    shared by LaurentPoly and PolyVector.

    Each subclass checks its own key layout in `_signed_key` for the one
    validating constructor and says how a key splits into (exponent, wedge)
    in `_exp_wedge`.  Results of the linear operations keep the class of
    the left operand, and elements of different classes are never equal.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        _check_size("rank", rank)
        self.rank = rank
        # each key, then its coefficient, is checked before any term drops
        self.terms = _merge(
            (key, sign, _as_coefficient(c))
            for raw, c in (terms or {}).items()
            for key, sign in (self._signed_key(raw, rank),)
        )

    @classmethod
    def _raw(cls, rank: int, terms: dict):
        """Internal fast path: keys already canonical, coefficients already
        ints or Fractions, kept as they are; only zero filtering is done.

        The store owns `terms`: a dict with no zero value is kept as given,
        not copied, so callers hand it a fresh dict that nothing else
        holds.  Only a dict holding a zero is copied, without the zeros."""
        obj = object.__new__(cls)
        obj.rank = rank
        obj.terms = terms if all(terms.values()) else {k: c for k, c in terms.items() if c}
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
        return self + -other

    def __neg__(self):
        return self._raw(self.rank, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = _as_coefficient(c)
        return self._raw(self.rank, {k: v * c for k, v in self.terms.items()})

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

    @staticmethod
    def _signed_key(exp, rank: int):
        return _exponent(exp, rank), 1

    @staticmethod
    def _exp_wedge(exp):
        return exp, ()

    # -- constructors ----------------------------------------------------

    @classmethod
    def monomial(cls, rank: int, exp, coeff=1) -> "LaurentPoly":
        return cls(rank, {tuple(exp): coeff})

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
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                old = terms.get(e)
                terms[e] = c if old is None else old + c
        return LaurentPoly._raw(self.rank, terms)

    __rmul__ = __mul__
