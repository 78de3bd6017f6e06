"""Chevalley-Eilenberg 1-cochains on the Witt algebra with values in the
Laurent module, and the cocycle condition over a finite verification window.

The symbolic family alpha*Delta + sum_i beta_i z_i^{-1}[-, z_i] + [-, g]
covers the geometric cocycles (BV/divergence and logarithmic) plus an
arbitrary coboundary part.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product

from .bvalgebra import PolyVector, bv_delta, gerstenhaber_bracket
from .laurent import LaurentPoly, _as_fraction, _check_rank_arg


def module_action(x: PolyVector, m: LaurentPoly) -> LaurentPoly:
    """Reference action of vector fields on functions: x.m = [x, m]."""
    bracket = gerstenhaber_bracket(x, PolyVector.from_laurent(m))
    return bracket.degree0_to_laurent()


class CE1Cochain:
    """alpha*Delta + sum_i beta_i z_i^{-1}[-, z_i] + [-, g] as a 1-cochain
    from degree-1 polyvector fields to Laurent polynomials."""

    def __init__(self, rank: int, alpha=0, betas=None, exact_part: LaurentPoly | None = None):
        _check_rank_arg(rank)
        self.rank = rank
        self.alpha = _as_fraction(alpha)
        betas = list(betas) if betas is not None else [0] * rank
        if len(betas) != rank:
            raise ValueError(f"expected {rank} beta coefficients, got {len(betas)}")
        self.betas = [_as_fraction(b) for b in betas]
        if exact_part is not None and exact_part.rank != rank:
            raise ValueError("exact part has wrong rank")
        self.exact_part = exact_part

    def __call__(self, x: PolyVector) -> LaurentPoly:
        return self.evaluate(x)

    def evaluate(self, x: PolyVector) -> LaurentPoly:
        if x.rank != self.rank:
            raise ValueError(f"rank {x.rank} argument for rank {self.rank} cochain")
        out = LaurentPoly.zero(self.rank)
        if self.alpha:
            out = out + bv_delta(x).degree0_to_laurent().scale(self.alpha)
        for i, beta in enumerate(self.betas, start=1):
            if not beta:
                continue
            z_i = LaurentPoly.variable(self.rank, i)
            out = out + (z_i.invert_monomial() * module_action(x, z_i)).scale(beta)
        if self.exact_part is not None:
            out = out + module_action(x, self.exact_part)
        return out


def ce_differential_check(cochain, x: PolyVector, y: PolyVector) -> LaurentPoly:
    """psi([x,y]) - x.psi(y) + y.psi(x); zero iff the cocycle condition holds
    on the pair.  `cochain` is any callable from vector fields to Laurent."""
    bracket = gerstenhaber_bracket(x, y)
    return cochain(bracket) - module_action(x, cochain(y)) + module_action(y, cochain(x))


def witt_basis(rank: int, window: int):
    """All xi_{n,i} with ||n||_inf <= window."""
    for exp in product(range(-window, window + 1), repeat=rank):
        for i in range(1, rank + 1):
            yield PolyVector.xi(rank, exp, i)


def is_cocycle_on_window(cochain, rank: int, window: int) -> bool:
    """Check the cocycle condition on all basis pairs (xi_{n,i}, xi_{m,j})
    with sup-norm at most `window`."""
    if window < 1:
        raise ValueError("window must be >= 1")
    basis = list(witt_basis(rank, window))
    for x in basis:
        for y in basis:
            if not ce_differential_check(cochain, x, y).is_zero():
                return False
    return True


# a comma not inside [...]: no ']' follows it before the next '['
_FIELD_SEPARATOR = re.compile(r",(?![^\[]*\])")


def parse_cochain_spec(spec: str, rank: int) -> CE1Cochain:
    """Parse a CLI cocycle spec like `alpha=-1/2,beta=[-1/2,0],g=0`.
    Malformed text raises ParseError at its index in `spec`."""
    from .parsing import ParseError, parse_coefficient, parse_laurent

    alpha = Fraction(0)
    betas = [Fraction(0)] * rank
    exact = None
    start = 0
    for field in _FIELD_SEPARATOR.split(spec):
        key, eq, raw = field.partition("=")
        value = raw.strip()
        at = start + len(key) + 1 + len(raw) - len(raw.lstrip())  # index of `value`
        if not eq:
            raise ParseError(f"bad cocycle spec field {field!r}", start)
        key = key.strip()
        if key == "alpha":
            alpha = parse_coefficient(value, at)
        elif key == "beta":
            parts = [p.strip() for p in value.strip("[]").split(",") if p.strip()]
            if len(parts) != rank:
                raise ParseError(f"expected {rank} beta entries, got {len(parts)}", at)
            betas = []
            for part in parts:
                at = spec.index(part, at)
                betas.append(parse_coefficient(part, at))
                at += len(part)
        elif key == "g":
            try:
                exact = None if value == "0" else parse_laurent(value, rank)
            except ParseError as err:
                raise ParseError(err.message, at + err.position) from None
        else:
            raise ParseError(f"unknown cocycle spec key {key!r}", start)
        start += len(field) + 1
    return CE1Cochain(rank, alpha, betas, exact)
