"""Chevalley-Eilenberg 1-cochains on the Witt algebra with values in the
Laurent module, and the cocycle condition over a finite verification window.

The symbolic family alpha*Delta + sum_i beta_i z_i^{-1}[-, z_i] + [-, g]
covers the geometric cocycles (BV/divergence and logarithmic) plus an
arbitrary coboundary part.
"""

from __future__ import annotations

import re
from itertools import product

from .bvalgebra import PolyVector, gerstenhaber_bracket
from .laurent import LaurentPoly, RankMismatchError, _as_coefficient, _check_size
from .parsing import ParseError, parse_coefficient, parse_laurent


def _vector_field_terms(x: PolyVector):
    """(n, i, c) for each term c z^n theta_{i+1} of x.  Functions act by 0
    and are skipped; a term of degree >= 2 raises ValueError."""
    for (n, w), c in x.terms.items():
        if len(w) == 1:
            yield n, w[0] - 1, c
        elif w:
            raise ValueError(f"expected a vector field, got a degree-{len(w)} term")


def module_action(x: PolyVector, m: LaurentPoly) -> LaurentPoly:
    """Vector fields act on functions as derivations, x.m = [x, m]:
    z^n theta_i . z^k = k_i z^{n+k}, in one pass over the term pairs."""
    x._check_rank(m)
    terms = {}
    for n, i, c in _vector_field_terms(x):
        for k, d in m.terms.items():
            if k[i]:
                e = tuple(a + b for a, b in zip(n, k))
                v = c * d * k[i]
                old = terms.get(e)
                terms[e] = v if old is None else old + v
    return LaurentPoly._raw(x.rank, terms)


class CE1Cochain:
    """alpha*Delta + sum_i beta_i z_i^{-1}[-, z_i] + [-, g] as a 1-cochain
    from vector fields to Laurent polynomials, in closed form on a term:
    psi(z^n theta_i) = (alpha n_i + beta_i) z^n + [z^n theta_i, g]."""

    def __init__(self, rank: int, alpha=0, betas=None, exact_part: LaurentPoly | None = None):
        _check_size("rank", rank)
        self.rank = rank
        self.alpha = _as_coefficient(alpha)
        betas = list(betas) if betas is not None else [0] * rank
        if len(betas) != rank:
            raise ValueError(f"expected {rank} beta coefficients, got {len(betas)}")
        self.betas = [_as_coefficient(b) for b in betas]
        if exact_part is not None and exact_part.rank != rank:
            raise RankMismatchError(f"rank {exact_part.rank} exact part for rank {rank} cochain")
        self.exact_part = exact_part

    def evaluate(self, x: PolyVector) -> LaurentPoly:
        if x.rank != self.rank:
            raise RankMismatchError(f"rank {x.rank} argument for rank {self.rank} cochain")
        terms = {}
        for n, i, c in _vector_field_terms(x):
            v = self.alpha * n[i] + self.betas[i]
            if v:
                v *= c
                old = terms.get(n)
                terms[n] = v if old is None else old + v
        out = LaurentPoly._raw(self.rank, terms)
        return out if self.exact_part is None else out + module_action(x, self.exact_part)

    __call__ = evaluate


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
    _check_size("rank", rank)
    _check_size("window", window)
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
    alpha = 0
    betas = [0] * rank
    exact = None
    seen = set()
    start = 0
    for field in _FIELD_SEPARATOR.split(spec):
        key, eq, raw = field.partition("=")
        value = raw.strip()
        at = start + len(key) + 1 + len(raw) - len(raw.lstrip())  # index of `value`
        if not eq:
            raise ParseError(f"bad cocycle spec field {field!r}", start)
        key = key.strip()
        if key in seen:
            raise ParseError(f"repeated cocycle spec key {key!r}", start)
        seen.add(key)
        if key == "alpha":
            alpha = parse_coefficient(value, at)
        elif key == "beta":
            inner = value[1:-1]
            if value[:1] != "[" or value[-1:] != "]" or "[" in inner or "]" in inner:
                raise ParseError(f"beta must be written [b1,...,br], got {value!r}", at)
            parts = inner.split(",")
            if len(parts) != rank:
                raise ParseError(f"expected {rank} beta entries, got {len(parts)}", at)
            at += 1
            betas = []
            for part in parts:
                betas.append(parse_coefficient(part.strip(), at + len(part) - len(part.lstrip())))
                at += len(part) + 1
        elif key == "g":
            try:
                exact = None if value == "0" else parse_laurent(value, rank)
            except ParseError as err:
                raise ParseError(err.message, at + err.position) from None
        else:
            raise ParseError(f"unknown cocycle spec key {key!r}", start)
        start += len(field) + 1
    return CE1Cochain(rank, alpha, betas, exact)
