"""Witt-algebra representations on densities P(z) z^beta (dz/z)^alpha,
realized on rank-1 Laurent polynomials by

    rho_{alpha,beta}(xi_i) z^j = (j + alpha*i + beta) z^{i+j}

together with extraction and irreducibility testing of the finite
dimensional sl2 submodules.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .laurent import LaurentPoly, _as_coefficient, _check_int, _check_size, _require_function


class DensityRepSpec:
    """The pair (alpha, beta) defining rho_{alpha,beta} at rank 1.  Both are
    read-only, so a spec stays canonical and so does `_shift`, the ints
    (a_n*b_d, b_n*a_d, a_d*b_d) for alpha = a_n/a_d and beta = b_n/b_d."""

    __slots__ = ("_alpha", "_beta", "_shift")

    def __init__(self, alpha, beta):
        self._alpha = a = _as_coefficient(alpha)
        self._beta = b = _as_coefficient(beta)
        self._shift = (a.numerator * b.denominator, b.numerator * a.denominator,
                       a.denominator * b.denominator)

    @property
    def alpha(self) -> int | Fraction:
        return self._alpha

    @property
    def beta(self) -> int | Fraction:
        return self._beta

    def __repr__(self):
        return f"DensityRepSpec(alpha={self.alpha}, beta={self.beta})"


def rho_apply(spec: DensityRepSpec, i: int, p: LaurentPoly) -> LaurentPoly:
    """Linear extension of rho(xi_i) z^j = (j + alpha*i + beta) z^{i+j}:
    the rank-1 LaurentPoly of the term map `_rho_terms` on p's terms, with
    its zeros dropped.

    A non-integer or bool index i raises TypeError, and so does an input p
    that is not a LaurentPoly; an input of another rank raises ValueError."""
    if type(i) is not int:
        _check_int("Witt index", i)
    if type(p) is not LaurentPoly:
        _require_function("density", p)
    if p.rank != 1:
        raise ValueError("density representations are defined at rank 1")
    return LaurentPoly._raw(1, _rho_terms(spec, i, p.terms))


def _rho_terms(spec: DensityRepSpec, i: int, terms: dict) -> dict:
    """rho(xi_i) on a rank-1 term dict {(j,): c}, as a fresh dict; the one
    copy of the density formula.  Nothing is checked, and a term whose
    multiplier vanishes is kept as a zero.

    With alpha = a_n/a_d and beta = b_n/b_d, the shift s = alpha*i + beta
    is s_n/s_d with the ints s_n = a_n*b_d*i + b_n*a_d and s_d = a_d*b_d
    (the products are fixed per spec, in `spec._shift`), and with a
    coefficient c = c_n/c_d each output coefficient is the canonical form
    of n/d with

        n = (s_n + j*s_d) * c_n,   d = s_d * c_d:

    the int n // d when d divides n, else Fraction(n, d) in lowest terms.
    So an integral term is an int, whatever the spec."""
    slope, offset, s_d = spec._shift
    s_n = slope * i + offset
    # j -> i + j is injective, so each key is hit once
    out = {}
    for (j,), c in terms.items():
        n = (s_n + j * s_d) * c.numerator
        d = s_d * c.denominator
        out[(i + j,)] = n // d if n % d == 0 else Fraction(n, d)
    return out


def _window(lo: int, hi: int, c: int) -> dict:
    """The terms of c times the sum of the monomials z^j, lo <= j <= hi:
    hi - lo + 1 terms, each the int c.  The checks pass c = lambda, a power
    of the spec's denominator D = a_d*b_d (`spec._shift[2]`).  rho is
    linear over Q, so each side of a comparison on lambda P is lambda times
    the side on P and the verdict is the same; and rho sends c z^j to
    c (j D + s_n) / D z^{i+j}, an int when D divides c, so no Fraction is
    built."""
    return dict.fromkeys([(j,) for j in range(lo, hi + 1)], c)


def verify_lie_action(spec: DensityRepSpec, lo: int, hi: int, bracket_window: int = 3) -> bool:
    """Check rho([xi_n, xi_m]) = rho(xi_n) rho(xi_m) - rho(xi_m) rho(xi_n)
    on monomials z^j, lo <= j <= hi, for |n|, |m| <= bracket_window.

    All the monomials are checked at once, on their sum P, which holds
    hi - lo + 1 terms.  rho is the term-by-term linear extension and
    j -> j + k is injective, so rho(xi_k) P holds rho(xi_k) z^j at key
    j + k and at no other key, and rho(xi_n) rho(xi_m) P holds the
    composite of z^j at key j + n + m alone.  Comparing the window images
    key by key therefore decides exactly the (j, n, m) cases of a walk
    over the monomials, with no truncation edge effects.  Only n < m is
    compared: the (m, n) identity is the exact negation of the (n, m)
    one, and n = m reads 0 == 0.  The images rho(xi_k) P are built once
    for k in the window and for every sum n + m of a compared pair, which
    is |k| <= 2W - 1 with W = bracket_window; they serve as the left sides
    and the inner factors.  Each composite rho(xi_n) rho(xi_m) P with
    n != m is built once, at the comparison that reads it, and the check
    returns at the first failing pair.  A check applies the term map
    `_rho_terms` (4W - 1) + 2W(2W + 1) = 4W^2 + 6W - 1 times, whatever
    the range.  Window, images and composites stay term dicts, which may
    hold zeros: no store is built.

    The window is lambda P with lambda = D^2, for the spec's denominator
    D = a_d*b_d (`spec._shift[2]`, see `_window`).  rho is linear over Q,
    so the two composites a, b and the image c below all scale by lambda
    when P does, and a - b = k c holds on lambda P exactly when it holds
    on P.  With s_n(i) = a_n*b_d*i + b_n*a_d, the image of lambda z^j is
    D (j D + s_n(k)) and its composite is (j D + s_n(m)) ((j + m) D +
    s_n(n)): ints whatever alpha and beta are, so the check builds no
    Fraction.

    Each comparison a - b == k c, with a and b the two composites, c the
    image rho(xi_{n+m}) P and k = m - n, is `_is_scaled_difference`.

    A bool or non-int lo or hi raises TypeError.  An empty monomial range
    or a window below 1 would check nothing and raises ValueError.
    """
    if type(lo) is not int:
        _check_int("lo", lo)
    if type(hi) is not int:
        _check_int("hi", hi)
    _check_size("hi - lo + 1", hi - lo + 1)
    _check_size("bracket_window", bracket_window)
    rho = _rho_terms
    window = _window(lo, hi, spec._shift[2] ** 2)
    image = {k: rho(spec, k, window) for k in range(1 - 2 * bracket_window, 2 * bracket_window)}
    # [xi_n, xi_m] = (m - n) xi_{n+m}
    for n, m in combinations(range(-bracket_window, bracket_window + 1), 2):
        if not _is_scaled_difference(rho(spec, n, image[m]), rho(spec, m, image[n]), image[n + m], m - n):
            return False
    return True


def _is_scaled_difference(a: dict, b: dict, c: dict, k: int) -> bool:
    """a - b == k*c for term dicts a, b, c and an int k, decided key by key
    without building a sum; exact for int and Fraction coefficients.  A
    missing key reads as 0, so a dict may hold zeros: two maps are equal
    iff they agree at every key any of the dicts holds."""
    for key in a.keys() | b.keys() | c.keys():
        if a.get(key, 0) - b.get(key, 0) != k * c.get(key, 0):
            return False
    return True


class FiniteSl2Module:
    """A finite dimensional sl2 module with one-dimensional weight spaces,
    as a weight chain on the basis x_t = z^{basis_exponents[t]}:

        h x_t = weights[t] x_t,   e x_t = a[t] x_{t+1},   f x_{t+1} = b[t] x_t.

    Such a module is fully described by its weights and one raising and one
    lowering coefficient per step (Humphreys, Introduction to Lie Algebras
    and Representation Theory, 7.2).  Every basis exponent, weight and step
    coefficient is a Python int: the checked constructor raises TypeError
    on a bool, a float, a Fraction or a string.  The basis exponents are
    distinct, since the x_t are distinct monomials, and a repeat raises
    ValueError.  The sl2 relations are checked on the
    chain: [h, e] = 2e and [h, f] = -2f say the weights are -n, -n+2, ..., n
    in chain order, and [e, f] = h says a[t-1] b[t-1] - a[t] b[t] =
    weights[t].  An empty chain raises ValueError.  The dense matrices
    `e`, `h`, `f` are built on demand."""

    def __init__(self, basis_exponents, weights, a, b):
        self._set_chain(basis_exponents, weights, a, b)
        d = self.dim
        if not d:
            raise ValueError("a weight chain needs at least one basis vector")
        if len(self.weights) != d or len(self.a) != d - 1 or len(self.b) != d - 1:
            raise ValueError(
                f"{d} basis vectors need {d} weights and {d - 1} values each of a and b, "
                f"got {len(self.weights)}, {len(self.a)} and {len(self.b)}"
            )
        for name, values in (
            ("basis exponent", self.basis_exponents), ("h weight", self.weights), ("a", self.a), ("b", self.b)
        ):
            for v in values:
                if type(v) is not int:
                    _check_int(name, v)
        if len(set(self.basis_exponents)) != d:
            raise ValueError(f"basis exponents must be distinct, got {self.basis_exponents}")
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
        """The scalar by which ef + fe + h^2/2 acts, an int where it is
        integral and a Fraction otherwise, or None when its values on the
        basis differ.  On any chain it maps x_t to a multiple of itself;
        on a checked chain of dimension n + 1 the scalar is n(n+2)/2."""
        products = self._step_products()
        # twice the value on x_t, an int on any chain of ints
        values = {2 * (products[t] + products[t + 1]) + w * w for t, w in enumerate(self.weights)}
        return _as_coefficient(Fraction(values.pop(), 2)) if len(values) == 1 else None


def extract_finite_sl2_submodule(spec: DensityRepSpec) -> FiniteSl2Module | None:
    """The unique finite dimensional sl2 submodule of rho_{alpha,beta}, or
    None.  It exists iff n = -2*alpha is a non-negative integer and
    j0 = alpha - beta is an integer (given 2*alpha in Z, iff alpha + beta
    is), and has basis z^{j0}, ..., z^{j0 + n}, with z^{j0} the kernel of
    the lowering operator; e = rho(xi_1), h = 2 rho(xi_0), f = -rho(xi_{-1}).

    Both conditions are read off the spec's ints (slope, offset, D) =
    (a_n*b_d, b_n*a_d, a_d*b_d), with alpha = slope/D and beta = offset/D
    and D > 0: n = -2 slope / D, so n is a non-negative integer iff
    slope <= 0 and D divides 2 slope, and j0 = (slope - offset) / D is an
    integer iff D divides slope - offset.  No Fraction is built.

    The chain is integers, as FiniteSl2Module stores it: with s = alpha +
    beta = -n - j0, e z^j = (j + s) z^{j+1}, f z^j = (j0 - j) z^{j-1} and
    h z^j = (2j + s - j0) z^j, so a[t] = j + s, b[t] = j0 - j and the
    weights are ints.
    """
    slope, offset, d = spec._shift
    if slope > 0 or 2 * slope % d or (slope - offset) % d:
        return None
    n, j0 = -2 * slope // d, (slope - offset) // d
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


def shift_isomorphism_check(alpha, beta, m: int) -> bool:
    """Verify that z^j -> z^{j+m} intertwines rho_{alpha, beta+m} with
    rho_{alpha, beta}: rho_{alpha,beta}(xi_i) o shift = shift o
    rho_{alpha,beta+m}(xi_i) on the monomials z^j, |j| <= 8, for |i| <= 3.
    Both sides are applied once per i to the sum of the 17 monomials; as in
    `verify_lie_action`, each side holds the image of z^j at key j + m + i
    alone, so the two sums agree iff the maps agree on every monomial.

    The sum is scaled by lambda = D, the denominator a_d*b_d of the base
    spec (see `_window`), which the shifted spec shares, since beta + m
    has beta's denominator.  Both sides are linear over Q, so they agree
    on lambda P iff they agree on P, and each image D (j D + s_n) / D =
    j D + s_n is an int: no Fraction is built.

    A non-integer or bool shift raises TypeError.
    """
    _check_int("shift", m)
    base = DensityRepSpec(alpha, beta)
    shifted = DensityRepSpec(alpha, _as_coefficient(beta) + m)

    def shift(p: LaurentPoly) -> LaurentPoly:
        return LaurentPoly._raw(1, {(j + m,): c for (j,), c in p.terms.items()})

    window = LaurentPoly._raw(1, _window(-8, 8, base._shift[2]))
    shifted_window = shift(window)
    return all(rho_apply(base, i, shifted_window) == shift(rho_apply(shifted, i, window)) for i in range(-3, 4))


def classification_grid(grid: int = 8):
    """Yield (spec, finite submodule or None) for 2*alpha in {-grid, ..., 2}
    and 2*beta in {-grid, ..., grid}; a grid that is not an int >= 1 raises
    before anything is yielded."""
    _check_size("grid", grid)
    for two_alpha in range(-grid, 3):
        for two_beta in range(-grid, grid + 1):
            spec = DensityRepSpec(Fraction(two_alpha, 2), Fraction(two_beta, 2))
            yield spec, extract_finite_sl2_submodule(spec)
