"""Witt-algebra representations on densities P(z) z^beta (dz/z)^alpha,
realized on rank-1 Laurent polynomials by

    rho_{alpha,beta}(xi_i) z^j = (j + alpha*i + beta) z^{i+j}

together with extraction and irreducibility testing of the finite
dimensional sl2 submodules.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import matrix
from .laurent import LaurentPoly, _as_fraction, _check_size


class DensityRepSpec:
    """The pair (alpha, beta) defining rho_{alpha,beta} at rank 1.  Both are
    read-only, so the memo behind `shift` cannot go stale."""

    __slots__ = ("_alpha", "_beta", "_shifts")

    def __init__(self, alpha, beta):
        self._alpha = _as_fraction(alpha)
        self._beta = _as_fraction(beta)
        self._shifts = {}

    @property
    def alpha(self) -> Fraction:
        return self._alpha

    @property
    def beta(self) -> Fraction:
        return self._beta

    def shift(self, i: int) -> Fraction:
        """alpha*i + beta, computed at most once per i."""
        s = self._shifts.get(i)
        if s is None:
            s = self._shifts[i] = self._alpha * i + self._beta
        return s

    def __repr__(self):
        return f"DensityRepSpec(alpha={self.alpha}, beta={self.beta})"


def rho_apply(spec: DensityRepSpec, i: int, p: LaurentPoly) -> LaurentPoly:
    """Linear extension of rho(xi_i) z^j = (j + alpha*i + beta) z^{i+j}."""
    if p.rank != 1:
        raise ValueError("density representations are defined at rank 1")
    # j -> i + j is injective, so each key is hit once; _raw drops the zeros
    shift = spec.shift(i)
    return LaurentPoly._raw(1, {(i + j,): (j + shift) * c for (j,), c in p.terms.items()})


def weight_of(spec: DensityRepSpec, j: int) -> Fraction:
    """xi_0 eigenvalue of z^j, namely j + beta."""
    return j + spec.beta


def verify_lie_action(spec: DensityRepSpec, lo: int, hi: int, bracket_window: int = 3) -> bool:
    """Check rho([xi_n, xi_m]) = rho(xi_n) rho(xi_m) - rho(xi_m) rho(xi_n)
    on monomials z^j, lo <= j <= hi, for |n|, |m| <= bracket_window.

    Images are evaluated exactly on each monomial, so there are no
    truncation edge effects.  For each z^j the images rho(xi_k) z^j,
    |k| <= 2W with W = bracket_window, are computed once and serve as the
    left sides and the inner factors.  Each composite rho(xi_n) rho(xi_m) z^j
    is then computed once and serves both orders of the commutator, so a
    monomial costs (4W+1) + (2W+1)^2 calls of rho_apply.

    An empty monomial range or a window below 1 would check nothing and
    raises ValueError.
    """
    _check_size("hi - lo + 1", hi - lo + 1)
    _check_size("bracket_window", bracket_window)
    window = range(-bracket_window, bracket_window + 1)
    reach = range(-2 * bracket_window, 2 * bracket_window + 1)
    for j in range(lo, hi + 1):
        zj = LaurentPoly.monomial(1, (j,))
        image = {k: rho_apply(spec, k, zj) for k in reach}
        twice = {(n, m): rho_apply(spec, n, image[m]) for n in window for m in window}
        for n in window:
            for m in window:
                # [xi_n, xi_m] = (m - n) xi_{n+m}
                if image[n + m].scale(m - n) != twice[n, m] - twice[m, n]:
                    return False
    return True


class FiniteSl2Module:
    """A finite dimensional sl2 module with one-dimensional weight spaces,
    given by matrices for e, h, f in a monomial basis z^{j} (labels stored)."""

    def __init__(self, basis_exponents, e, h, f):
        self._set_entries(basis_exponents, e, h, f)
        self._check_invariants()

    def _set_entries(self, basis_exponents, e, h, f):
        self.dim = len(basis_exponents)
        self.basis_exponents = list(basis_exponents)
        self.e = [[_as_fraction(v) for v in row] for row in e]
        self.h = [[_as_fraction(v) for v in row] for row in h]
        self.f = [[_as_fraction(v) for v in row] for row in f]

    def _check_invariants(self):
        if matrix.commutator(self.h, self.e) != matrix.scale(self.e, 2):
            raise ValueError("[h, e] != 2e")
        if matrix.commutator(self.h, self.f) != matrix.scale(self.f, -2):
            raise ValueError("[h, f] != -2f")
        if matrix.commutator(self.e, self.f) != self.h:
            raise ValueError("[e, f] != h")
        spectrum = self.h_spectrum()
        if any(v.denominator != 1 for v in spectrum):
            raise ValueError("h eigenvalues must be integers")
        n = self.dim - 1
        if spectrum != [Fraction(-n + 2 * t) for t in range(self.dim)]:
            raise ValueError("h spectrum must be {-n, -n+2, ..., n}")

    @classmethod
    def unchecked(cls, basis_exponents, e, h, f) -> "FiniteSl2Module":
        """Construct without invariant checks (test fixtures for reducible
        or malformed modules)."""
        module = object.__new__(cls)
        module._set_entries(basis_exponents, e, h, f)
        return module

    def __repr__(self):
        def rows(m):
            return [[str(v) for v in row] for row in m]

        return (
            f"FiniteSl2Module(basis_exponents={self.basis_exponents}, "
            f"e={rows(self.e)}, h={rows(self.h)}, f={rows(self.f)})"
        )

    def h_spectrum(self):
        if any(self.h[i][j] for i in range(self.dim) for j in range(self.dim) if i != j):
            raise ValueError("h must act diagonally")
        return sorted(self.h[i][i] for i in range(self.dim))

    def casimir(self):
        """ef + fe + h^2/2 as a matrix."""
        ef = matrix.product(self.e, self.f)
        fe = matrix.product(self.f, self.e)
        hh = matrix.scale(matrix.product(self.h, self.h), Fraction(1, 2))
        return matrix.add(matrix.add(ef, fe), hh)


def has_finite_submodule(spec: DensityRepSpec) -> bool:
    """Existence criterion: alpha a non-positive half-integer and
    alpha + beta an integer."""
    two_alpha = 2 * spec.alpha
    return (
        two_alpha.denominator == 1
        and two_alpha <= 0
        and (spec.alpha + spec.beta).denominator == 1
    )


def extract_finite_sl2_submodule(spec: DensityRepSpec) -> FiniteSl2Module | None:
    """The unique finite dimensional sl2 submodule of rho_{alpha,beta}, or
    None when the existence criterion fails.

    The submodule has dimension -2*alpha + 1, with basis z^{j0}, ...,
    z^{j0 + n} where j0 = alpha - beta locates the kernel of the lowering
    operator; the sl2 operators are e = rho(xi_1), h = 2 rho(xi_0),
    f = -rho(xi_{-1}).
    """
    if not has_finite_submodule(spec):
        return None
    n = int(-2 * spec.alpha)
    j0 = spec.alpha - spec.beta
    if j0.denominator != 1:
        raise RuntimeError(f"lowest exponent alpha - beta = {j0} of {spec!r} is not an integer")
    j0 = int(j0)
    exponents = [j0 + t for t in range(n + 1)]
    dim = n + 1
    e = matrix.zeros(dim)
    h = matrix.zeros(dim)
    f = matrix.zeros(dim)
    for t, j in enumerate(exponents):
        h[t][t] = 2 * weight_of(spec, j)
        ecoeff = j + spec.alpha + spec.beta
        if ecoeff:
            if t + 1 >= dim:
                raise RuntimeError("raising operator escapes the submodule")
            e[t + 1][t] = ecoeff
        fcoeff = -(j - spec.alpha + spec.beta)
        if fcoeff:
            if t - 1 < 0:
                raise RuntimeError("lowering operator escapes the submodule")
            f[t - 1][t] = fcoeff
    return FiniteSl2Module(exponents, e, h, f)


def check_irreducible(module: FiniteSl2Module) -> bool:
    """True iff the module has no proper nonzero invariant subspace.

    Uses the raising-chain criterion (valid because the weight spaces are
    one dimensional): e must map each non-top weight space injectively to
    the next.  Cross-checked for dim <= 5 by brute-force enumeration of
    invariant coordinate subspaces (subspaces spanned by eigenvectors of
    the diagonal operator h, which has distinct eigenvalues).
    """
    dim = module.dim
    spectrum = module.h_spectrum()
    if len(set(spectrum)) != dim:
        # repeated weights: by complete reducibility the module splits
        return False
    chain_ok = all(module.e[t + 1][t] != 0 for t in range(dim - 1))
    if dim <= 5 and chain_ok != _irreducible_brute_force(module):
        raise RuntimeError(
            f"raising-chain criterion ({chain_ok}) and brute force disagree on {module!r}"
        )
    return chain_ok


def _irreducible_brute_force(module: FiniteSl2Module) -> bool:
    """Enumerate all proper nonzero spans of h-eigenvectors and test
    invariance under e and f.  Since h is diagonal with distinct entries,
    every invariant subspace is of this form."""
    dim = module.dim
    indices = range(dim)
    for size in range(1, dim):
        for subset in combinations(indices, size):
            inside = set(subset)
            invariant = True
            for op in (module.e, module.f):
                for col in subset:
                    for row in indices:
                        if row not in inside and op[row][col]:
                            invariant = False
                            break
                    if not invariant:
                        break
                if not invariant:
                    break
            if invariant:
                return False
    return True


def shift_isomorphism_check(alpha, beta, m: int, lo: int, hi: int, bracket_window: int = 3) -> bool:
    """Verify that z^j -> z^{j+m} intertwines rho_{alpha, beta+m} with
    rho_{alpha, beta}: rho_{alpha,beta}(xi_i) o shift = shift o
    rho_{alpha,beta+m}(xi_i) on all window monomials, |i| <= bracket_window.
    A bool shift raises TypeError; an empty monomial range or a window below
    1 raises ValueError.
    """
    if isinstance(m, bool) or not isinstance(m, int):
        raise TypeError(f"shift must be an integer, got {m!r}")
    _check_size("hi - lo + 1", hi - lo + 1)
    _check_size("bracket_window", bracket_window)
    base = DensityRepSpec(alpha, beta)
    shifted = DensityRepSpec(alpha, _as_fraction(beta) + m)

    def shift(p: LaurentPoly) -> LaurentPoly:
        return LaurentPoly(1, {(j + m,): c for (j,), c in p.terms.items()})

    for i in range(-bracket_window, bracket_window + 1):
        for j in range(lo, hi + 1):
            zj = LaurentPoly.monomial(1, (j,))
            if rho_apply(base, i, shift(zj)) != shift(rho_apply(shifted, i, zj)):
                return False
    return True


def classification_grid(grid: int = 8):
    """Yield (spec, finite submodule or None) for 2*alpha in {-grid, ..., 2}
    and 2*beta in {-grid, ..., grid}."""
    for two_alpha in range(-grid, 3):
        for two_beta in range(-grid, grid + 1):
            spec = DensityRepSpec(Fraction(two_alpha, 2), Fraction(two_beta, 2))
            yield spec, extract_finite_sl2_submodule(spec)


def classification_sweep(grid: int = 8):
    """Existence and dimension of the finite submodule at each point of
    `classification_grid`."""
    return [
        {
            "alpha": str(spec.alpha),
            "beta": str(spec.beta),
            "exists": module is not None,
            "dim": module.dim if module is not None else 0,
        }
        for spec, module in classification_grid(grid)
    ]
