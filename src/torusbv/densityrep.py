"""Witt-algebra representations on densities P(z) z^beta (dz/z)^alpha,
realized on rank-1 Laurent polynomials by

    rho_{alpha,beta}(xi_i) z^j = (j + alpha*i + beta) z^{i+j}

together with extraction and irreducibility testing of the finite
dimensional sl2 submodules.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .laurent import LaurentPoly, _as_coefficient, _check_int, _check_size


class DensityRepSpec:
    """The pair (alpha, beta) defining rho_{alpha,beta} at rank 1.  Both are
    read-only, so the memo behind `shift` cannot go stale."""

    __slots__ = ("_alpha", "_beta", "_shifts")

    def __init__(self, alpha, beta):
        self._alpha = _as_coefficient(alpha)
        self._beta = _as_coefficient(beta)
        self._shifts = {}

    @property
    def alpha(self) -> int | Fraction:
        return self._alpha

    @property
    def beta(self) -> int | Fraction:
        return self._beta

    def shift(self, i: int) -> int | Fraction:
        """alpha*i + beta, computed at most once per i."""
        s = self._shifts.get(i)
        if s is None:
            s = self._shifts[i] = self._alpha * i + self._beta
        return s

    def __repr__(self):
        return f"DensityRepSpec(alpha={self.alpha}, beta={self.beta})"


def rho_apply(spec: DensityRepSpec, i: int, p: LaurentPoly) -> LaurentPoly:
    """Linear extension of rho(xi_i) z^j = (j + alpha*i + beta) z^{i+j}.

    With the memoised shift s = alpha*i + beta = s_n/s_d and a coefficient
    c = c_n/c_d, each output coefficient is the one Fraction

        Fraction((s_n + j*s_d) * c_n, s_d * c_d),

    which the constructor puts in lowest terms.  A non-integer or bool
    index i raises TypeError."""
    _check_int("Witt index", i)
    if p.rank != 1:
        raise ValueError("density representations are defined at rank 1")
    # j -> i + j is injective, so each key is hit once; _raw drops the zeros
    shift = spec.shift(i)
    s_n, s_d = shift.numerator, shift.denominator
    return LaurentPoly._raw(1, {
        (i + j,): Fraction((s_n + j * s_d) * c.numerator, s_d * c.denominator)
        for (j,), c in p.terms.items()
    })


def verify_lie_action(spec: DensityRepSpec, lo: int, hi: int, bracket_window: int = 3) -> bool:
    """Check rho([xi_n, xi_m]) = rho(xi_n) rho(xi_m) - rho(xi_m) rho(xi_n)
    on monomials z^j, lo <= j <= hi, for |n|, |m| <= bracket_window.

    Images are evaluated exactly on each monomial, so there are no
    truncation edge effects.  Only n < m is compared: the (m, n) identity
    is the exact negation of the (n, m) one, and n = m reads 0 == 0, so
    the n = m composites are never built.  For each z^j the images
    rho(xi_k) z^j are built once for k in the window and for every sum
    n + m of a compared pair, which is |k| <= 2W - 1 with W =
    bracket_window; they serve as the left sides and the inner factors.
    Each composite rho(xi_n) rho(xi_m) z^j with n != m is built once, at
    the comparison that reads it, and the check returns at the first
    failure.  A monomial that passes costs (4W - 1) + 2W(2W + 1) calls of
    rho_apply.

    Each comparison a - b == k c, with a and b the two composites, c the
    image rho(xi_{n+m}) z^j and k = m - n, is decided without building a
    sum or a Fraction: a, b and c must share type and rank, and at every
    key any of them holds, with a missing coefficient read as 0, the
    numerators and denominators of x = a[key], y = b[key], z = c[key]
    satisfy (x_n y_d - y_n x_d) z_d == k z_n x_d y_d.

    An empty monomial range or a window below 1 would check nothing and
    raises ValueError.
    """
    _check_size("hi - lo + 1", hi - lo + 1)
    _check_size("bracket_window", bracket_window)
    # [xi_n, xi_m] = (m - n) xi_{n+m}
    pairs = list(combinations(range(-bracket_window, bracket_window + 1), 2))
    reach = range(1 - 2 * bracket_window, 2 * bracket_window)
    for j in range(lo, hi + 1):
        zj = LaurentPoly._raw(1, {(j,): 1})
        image = {k: rho_apply(spec, k, zj) for k in reach}
        for n, m in pairs:
            if not _is_scaled_difference(
                rho_apply(spec, n, image[m]), rho_apply(spec, m, image[n]), image[n + m], m - n
            ):
                return False
    return True


def _is_scaled_difference(a, b, c, k: int) -> bool:
    """a - b == k*c for sparse stores a, b, c and an int k, decided on the
    numerators and denominators of the coefficients.  Stores of different
    types or ranks are never equal; no store holds a zero, so two maps are
    equal iff they agree at every key either holds."""
    if not (type(a) is type(b) is type(c) and a.rank == b.rank == c.rank):
        return False
    at, bt, ct = a.terms, b.terms, c.terms
    for key in at.keys() | bt.keys() | ct.keys():
        x = at.get(key, 0)
        y = bt.get(key, 0)
        z = ct.get(key, 0)
        x_d, y_d = x.denominator, y.denominator
        if (x.numerator * y_d - y.numerator * x_d) * z.denominator != k * z.numerator * x_d * y_d:
            return False
    return True


class FiniteSl2Module:
    """A finite dimensional sl2 module with one-dimensional weight spaces,
    as a weight chain on the basis x_t = z^{basis_exponents[t]}:

        h x_t = weights[t] x_t,   e x_t = a[t] x_{t+1},   f x_{t+1} = b[t] x_t.

    Such a module is fully described by its weights and one raising and one
    lowering coefficient per step (Humphreys, Introduction to Lie Algebras
    and Representation Theory, 7.2).  Every weight and step coefficient is
    a Python int: the checked constructor raises TypeError on a bool, a
    float, a Fraction or a string.  The sl2 relations are checked on the
    chain: [h, e] = 2e and [h, f] = -2f say the weights are -n, -n+2, ..., n
    in chain order, and [e, f] = h says a[t-1] b[t-1] - a[t] b[t] =
    weights[t].  The dense matrices `e`, `h`, `f` are built on demand."""

    def __init__(self, basis_exponents, weights, a, b):
        self._set_chain(basis_exponents, weights, a, b)
        d = self.dim
        if len(self.weights) != d or len(self.a) != d - 1 or len(self.b) != d - 1:
            raise ValueError(
                f"{d} basis vectors need {d} weights and {d - 1} values each of a and b, "
                f"got {len(self.weights)}, {len(self.a)} and {len(self.b)}"
            )
        for name, values in (("h weight", self.weights), ("a", self.a), ("b", self.b)):
            for v in values:
                _check_int(name, v)
        if self.weights != list(range(1 - d, d, 2)):
            raise ValueError("h weights must be -n, -n+2, ..., n in chain order")
        products = self._step_products()
        if any(products[t] - products[t + 1] != w for t, w in enumerate(self.weights)):
            raise ValueError("[e, f] != h")

    def _set_chain(self, basis_exponents, weights, a, b):
        self.basis_exponents = list(basis_exponents)
        self.weights = list(weights)
        self.a = list(a)
        self.b = list(b)

    @classmethod
    def unchecked(cls, basis_exponents, weights, a, b) -> "FiniteSl2Module":
        """Construct without invariant checks (test fixtures for reducible
        or malformed modules)."""
        module = object.__new__(cls)
        module._set_chain(basis_exponents, weights, a, b)
        return module

    def __repr__(self):
        return (
            f"FiniteSl2Module(basis_exponents={self.basis_exponents}, "
            f"weights={self.weights}, a={self.a}, b={self.b})"
        )

    def _step_products(self):
        """[0, a[0] b[0], ..., a[d-2] b[d-2], 0]: ef x_t and fe x_t are
        entries t and t + 1 times x_t."""
        return [0, *(x * y for x, y in zip(self.a, self.b)), 0]

    @property
    def dim(self) -> int:
        return len(self.basis_exponents)

    @property
    def e(self):
        return self._dense(self.a, 1, 0)

    @property
    def h(self):
        return self._dense(self.weights, 0, 0)

    @property
    def f(self):
        return self._dense(self.b, 0, 1)

    def _dense(self, values, row, col):
        """A new dense matrix with values[t] at (t + row, t + col)."""
        m = [[0] * self.dim for _ in range(self.dim)]
        for t, v in enumerate(values):
            m[t + row][t + col] = v
        return m

    def h_spectrum(self):
        return sorted(self.weights)

    def casimir(self):
        """The value of ef + fe + h^2/2 on each basis vector, which it maps
        to a multiple of itself on any chain."""
        products = self._step_products()
        return [products[t] + products[t + 1] + Fraction(w * w, 2) for t, w in enumerate(self.weights)]


def extract_finite_sl2_submodule(spec: DensityRepSpec) -> FiniteSl2Module | None:
    """The unique finite dimensional sl2 submodule of rho_{alpha,beta}, or
    None.  It exists iff n = -2*alpha is a non-negative integer and
    j0 = alpha - beta is an integer (given 2*alpha in Z, iff alpha + beta
    is), and has basis z^{j0}, ..., z^{j0 + n}, with z^{j0} the kernel of
    the lowering operator; e = rho(xi_1), h = 2 rho(xi_0), f = -rho(xi_{-1}).

    The chain is integers, as FiniteSl2Module stores it: with s = alpha +
    beta = -n - j0, e z^j = (j + s) z^{j+1}, f z^j = (j0 - j) z^{j-1} and
    h z^j = (2j + s - j0) z^j, so a[t] = j + s, b[t] = j0 - j and the
    weights are ints.
    """
    n = -2 * spec.alpha
    j0 = spec.alpha - spec.beta
    if n < 0 or n.denominator != 1 or j0.denominator != 1:
        return None
    n, j0 = int(n), int(j0)
    s = -n - j0  # alpha + beta = 2*alpha - (alpha - beta)
    exponents = range(j0, j0 + n + 1)
    a = [j + s for j in exponents[:-1]]
    b = [j0 - j for j in exponents[1:]]
    weights = [2 * j + s - j0 for j in exponents]
    return FiniteSl2Module(exponents, weights, a, b)


def check_irreducible(module: FiniteSl2Module) -> bool:
    """True iff the module has no proper nonzero invariant subspace.

    With distinct h eigenvalues the invariant subspaces are spans of basis
    vectors (Humphreys 7.2), and a span is invariant iff no nonzero a[t]
    leads out of it from x_t and no nonzero b[t] from x_{t+1}.  So the
    module is irreducible iff its weights are distinct and every a[t] and
    b[t] is nonzero: the chain is strongly connected.  The checked
    constructor gives a[t] b[t] = (t+1)(n-t) != 0, so only a chain built
    with `FiniteSl2Module.unchecked` can give False.
    """
    return len(set(module.weights)) == module.dim and all(module.a) and all(module.b)


def shift_isomorphism_check(alpha, beta, m: int, lo: int, hi: int, bracket_window: int = 3) -> bool:
    """Verify that z^j -> z^{j+m} intertwines rho_{alpha, beta+m} with
    rho_{alpha, beta}: rho_{alpha,beta}(xi_i) o shift = shift o
    rho_{alpha,beta+m}(xi_i) on all window monomials, |i| <= bracket_window.
    A non-integer or bool shift raises TypeError; an empty monomial range or
    a window below 1 raises ValueError.
    """
    _check_int("shift", m)
    _check_size("hi - lo + 1", hi - lo + 1)
    _check_size("bracket_window", bracket_window)
    base = DensityRepSpec(alpha, beta)
    shifted = DensityRepSpec(alpha, _as_coefficient(beta) + m)

    def shift(p: LaurentPoly) -> LaurentPoly:
        return LaurentPoly._raw(1, {(j + m,): c for (j,), c in p.terms.items()})

    for j in range(lo, hi + 1):
        zj = LaurentPoly._raw(1, {(j,): 1})
        shifted_zj = shift(zj)
        for i in range(-bracket_window, bracket_window + 1):
            if rho_apply(base, i, shifted_zj) != shift(rho_apply(shifted, i, zj)):
                return False
    return True


def classification_grid(grid: int = 8):
    """Yield (spec, finite submodule or None) for 2*alpha in {-grid, ..., 2}
    and 2*beta in {-grid, ..., grid}."""
    for two_alpha in range(-grid, 3):
        for two_beta in range(-grid, grid + 1):
            spec = DensityRepSpec(Fraction(two_alpha, 2), Fraction(two_beta, 2))
            yield spec, extract_finite_sl2_submodule(spec)
