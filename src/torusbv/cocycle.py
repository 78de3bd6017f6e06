"""Chevalley-Eilenberg 1-cochains on the Witt algebra with values in the
Laurent module, and the cocycle condition over a finite verification window.

The symbolic family alpha*Delta + sum_i beta_i z_i^{-1}[-, z_i] + [-, g]
covers the geometric cocycles (BV/divergence and logarithmic) plus an
arbitrary coboundary part.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import add

from .bvalgebra import PolyVector, gerstenhaber_bracket
from .laurent import LaurentPoly, RankMismatchError, _as_coefficient, _check_size, _require_function


def _vector_field_terms(x: PolyVector):
    """(n, i, c) for each term c z^n theta_{i+1} of x.  Functions act by 0
    and are skipped; a term of degree >= 2 raises ValueError."""
    for (n, w), c in x.terms.items():
        if len(w) == 1:
            yield n, w[0] - 1, c
        elif w:
            raise ValueError(f"expected a vector field, got a degree-{len(w)} term")


def _act_into(terms: dict, x: PolyVector, m: LaurentPoly, sign: int) -> None:
    """Add sign * (x.m) into `terms`, the term dict of a Laurent polynomial
    of the rank of x and m: z^n theta_i . z^k = k_i z^{n+k}, in one pass
    over the term pairs.  Zero sums stay in `terms` for `_raw` to drop."""
    for n, i, c in _vector_field_terms(x):
        if sign < 0:
            c = -c
        for k, d in m.terms.items():
            if k[i]:
                e = tuple(map(add, n, k))
                v = c * d * k[i]
                old = terms.get(e)
                terms[e] = v if old is None else old + v


def module_action(x: PolyVector, m: LaurentPoly) -> LaurentPoly:
    """Vector fields act on functions as derivations, x.m = [x, m].  A
    function that is not a LaurentPoly raises TypeError."""
    _require_function("function", m)
    x._check_rank(m)
    terms = {}
    _act_into(terms, x, m, 1)
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
        if exact_part is not None:
            _require_function("exact part", exact_part)
            if exact_part.rank != rank:
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
        if self.exact_part is not None:
            _act_into(terms, x, self.exact_part, 1)
        return LaurentPoly._raw(self.rank, terms)

    __call__ = evaluate


def _ce_residual(cochain, x: PolyVector, psi_x: LaurentPoly, y: PolyVector, psi_y: LaurentPoly) -> dict:
    """The term dict of psi([x,y]) - x.psi(y) + y.psi(x), given psi(x) and
    psi(y), which the caller has checked to be LaurentPolys: one dict
    seeded with the terms of psi([x,y]), which the two actions add into.
    It may hold zeros; `_raw` drops them.  A psi([x,y]) that is not a
    LaurentPoly raises TypeError."""
    value = cochain(gerstenhaber_bracket(x, y))
    _require_function("psi([x,y])", value)
    x._check_rank(psi_y)
    value._check_rank(x)
    y._check_rank(psi_x)
    terms = dict(value.terms)
    _act_into(terms, x, psi_y, -1)
    _act_into(terms, y, psi_x, 1)
    return terms


def ce_differential_check(cochain, x: PolyVector, y: PolyVector) -> LaurentPoly:
    """psi([x,y]) - x.psi(y) + y.psi(x); zero iff the cocycle condition holds
    on the pair.  `cochain` is any callable from vector fields to Laurent
    polynomials; a value of it that is not a LaurentPoly raises TypeError."""
    psi_x = cochain(x)
    _require_function("psi(x)", psi_x)
    psi_y = cochain(y)
    _require_function("psi(y)", psi_y)
    return LaurentPoly._raw(x.rank, _ce_residual(cochain, x, psi_x, y, psi_y))


def witt_basis(rank: int, window: int):
    """All xi_{n,i} with ||n||_inf <= window; a rank or window that is not
    an int >= 1 raises before anything is yielded."""
    _check_size("rank", rank)
    _check_size("window", window)
    for exp in product(range(-window, window + 1), repeat=rank):
        for i in range(1, rank + 1):
            yield PolyVector.xi(rank, exp, i)


def is_cocycle_on_window(cochain, rank: int, window: int) -> bool:
    """Check the cocycle condition on the basis pairs (xi_{n,i}, xi_{m,j})
    with sup-norm at most `window`, returning at the first failure.  psi
    must be linear, as `CE1Cochain` and every cochain this package builds
    are (the cocycle suite's engineered n^2 z^n map and `bv_delta` too):
    then the bracket's graded antisymmetry (checked by `verify bv-axioms`,
    and on every ordered basis pair by `verify witt-closed-form`) makes
    the residual of (y, x) minus that of (x, y) and the diagonal's 0, so
    only the pairs x < y in basis order are decided.  psi is evaluated
    once per basis field and once per pair, on the bracket, and each value
    is checked to be a LaurentPoly where it is computed; `witt_basis`
    checks the rank and the window before psi is called."""
    basis = []
    for x in witt_basis(rank, window):
        psi_x = cochain(x)
        _require_function("psi(x)", psi_x)
        basis.append((x, psi_x))
    for (x, psi_x), (y, psi_y) in combinations(basis, 2):
        if any(_ce_residual(cochain, x, psi_x, y, psi_y).values()):
            return False
    return True
