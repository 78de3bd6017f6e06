"""Batalin-Vilkovisky algebra of polyvector fields on the torus.

Elements live in Laurent (x) Lambda*(theta_1, ..., theta_r), where theta_i
stands for the vector field z_i d/dz_i.  The BV operator is implemented
twice, each in one pass over the terms: a definitional contraction form
(`bv_delta`) and an independent divergence computation through
logarithmic differential forms (`bv_delta_divergence`); the two must
agree everywhere.
"""

from __future__ import annotations

from functools import cache
from operator import add, lt

from .laurent import LaurentPoly, SparseStore, _exponent


def normalize_wedge(indices):
    """Sort wedge indices, returning (sorted tuple, Koszul sign).

    Returns sign 0 when an index repeats (theta_i ^ theta_i = 0).
    Strictly increasing indices (0 or 1 index always are) return at once,
    before anything is sorted.  Otherwise the sort is the builtin one, and
    the sign is the parity of the inversions, each index passing the larger
    ones still in front of it.
    """
    idx = tuple(indices)
    n = len(idx)
    if n < 2 or (idx[0] < idx[1] if n == 2 else all(map(lt, idx, idx[1:]))):
        return idx, 1
    out = tuple(sorted(idx))
    if len(set(out)) < len(out):
        return out, 0
    rest = list(idx)
    odd = 0
    for i in out:
        k = rest.index(i)
        odd ^= k & 1
        del rest[k]
    return out, -1 if odd else 1


class PolyVector(SparseStore):
    """Sparse element of Laurent (x) Lambda*(theta), stored as
    {(exponent tuple, wedge tuple): nonzero int or Fraction}, an int where
    integral from the constructor and the parser; other results may hold an
    integral Fraction, which acts as its int (see `laurent`).

    Wedge tuples are strictly increasing subsets of {1, ..., rank}.
    """

    __slots__ = ()

    @staticmethod
    def _signed_key(key, rank: int):
        """The canonical key and Koszul sign, 0 on a repeat, range-checked."""
        exp, wedge = key
        exp = _exponent(exp, rank)
        for i in wedge:
            if type(i) is not int:
                raise TypeError(f"wedge index {i!r} is not an integer")
        wedge, sign = normalize_wedge(wedge)
        if wedge and not (1 <= wedge[0] and wedge[-1] <= rank):
            raise ValueError(f"wedge indices {wedge} out of range for rank {rank}")
        return (exp, wedge), sign

    @staticmethod
    def _exp_wedge(key):
        return key

    # -- constructors ----------------------------------------------------

    @classmethod
    def monomial(cls, rank: int, exp, wedge=(), coeff=1) -> "PolyVector":
        return cls(rank, {(tuple(exp), tuple(wedge)): coeff})

    @classmethod
    def theta(cls, rank: int, i: int) -> "PolyVector":
        """The Cartan generator theta_i = z_i d/dz_i."""
        return cls.monomial(rank, (0,) * rank, (i,))

    @classmethod
    def xi(cls, rank: int, exp, i: int) -> "PolyVector":
        """The vector field xi_{n,i} = z^n theta_i."""
        return cls.monomial(rank, exp, (i,))

    # -- grading ----------------------------------------------------------

    def degree0_to_laurent(self) -> LaurentPoly:
        """Extract the function part as a LaurentPoly; the element must be
        concentrated in cohomological degree 0."""
        if any(w for (_, w) in self.terms):
            raise ValueError("element has nonzero cohomological degree")
        return LaurentPoly._raw(self.rank, {e: c for (e, _), c in self.terms.items()})

    def to_json(self):
        return [
            {"coeff": str(self.terms[key]), "exp": list(key[0]), "wedge": list(key[1])}
            for key in sorted(self.terms)
        ]


@cache
def _wedge_table(w1, w2):
    """(S u T, Koszul sign) of theta_S ^ theta_T for two canonical wedge
    tuples, sign 0 when they meet; `normalize_wedge` once per pair, keyed
    only by the two tuples."""
    return normalize_wedge(w1 + w2)


def wedge(a: PolyVector, b: PolyVector) -> PolyVector:
    """Graded-commutative product: (z^n, S)(z^m, T) = sign * (z^{n+m}, S u T),
    with (S u T, sign) read from `_wedge_table`."""
    a._check_rank(b)
    terms = {}
    for (e1, w1), c1 in a.terms.items():
        for (e2, w2), c2 in b.terms.items():
            w, sign = _wedge_table(w1, w2)
            if sign == 0:
                continue
            key = (tuple(map(add, e1, e2)), w)
            c = c1 * c2
            old = terms.get(key)
            if old is None:
                terms[key] = c if sign > 0 else -c
            else:
                terms[key] = old + c if sign > 0 else old - c
    return PolyVector._raw(a.rank, terms)


def bv_delta(a: PolyVector) -> PolyVector:
    """BV operator in contraction form: Delta(z^n eta) = z^n (iota_n eta),
    where iota_n contracts the wedge against the exponent vector n."""
    terms = {}
    for (exp, w), coeff in a.terms.items():
        for j, i in enumerate(w):
            n_i = exp[i - 1]
            if n_i == 0:
                continue
            key = (exp, w[:j] + w[j + 1:])
            c = coeff * (-n_i if j % 2 else n_i)
            old = terms.get(key)
            terms[key] = c if old is None else old + c
    return PolyVector._raw(a.rank, terms)


def _perm_sign_partition(first, rank):
    """Sign of the permutation (first..., complement...) of (1..rank),
    where `first` is strictly increasing."""
    sign = 1
    for pos, i in enumerate(first):
        # moving i left past the smaller complement elements
        smaller_compl = (i - 1) - pos
        if smaller_compl % 2:
            sign = -sign
    return sign


def bv_delta_divergence(a: PolyVector) -> PolyVector:
    """BV operator as the signed divergence for Omega = dlog z_1 ^ ... ^
    dlog z_r, through logarithmic forms z^n dlog z_T, in one pass over the
    terms.  Independent of `bv_delta`: no sign comes from its (-1)^j.

    Contraction against Omega sends z^n theta_S to eps(S) z^n dlog_{S^c},
    with eps(S) the sign of the permutation (S, S^c) of (1..r).  Then
    d(z^n dlog_T) = sum_i n_i z^n dlog_i ^ dlog_T, which for T = S^c and
    i in S is sigma z^n dlog_M with (M, sigma) = normalize_wedge((i,) + T).
    Contraction is inverted by W = M^c, with iota_{theta_W} Omega = eps(W)
    dlog_M, and a term of input degree k = |W| + 1 takes the degree sign
    (-1)^(k+1) = (-1)^|W|.  So each i in S with n_i != 0 adds
    eps(S) sigma eps(W) (-1)^|W| n_i c z^n theta_W.
    """
    rank = a.rank
    indices = range(1, rank + 1)
    terms = {}
    for (exp, s), coeff in a.terms.items():
        eps_s = _perm_sign_partition(s, rank)
        compl = tuple(i for i in indices if i not in s)
        for i in s:
            n_i = exp[i - 1]
            if n_i == 0:
                continue
            merged, sigma = normalize_wedge((i,) + compl)
            w = tuple(j for j in indices if j not in merged)
            sign = eps_s * sigma * _perm_sign_partition(w, rank) * (-1 if len(w) % 2 else 1)
            key = (exp, w)
            c = coeff * (n_i if sign > 0 else -n_i)
            old = terms.get(key)
            terms[key] = c if old is None else old + c
    return PolyVector._raw(rank, terms)


@cache
def _schouten_table(s, t):
    """The exterior-algebra half of [z^n theta_S, z^m theta_T] for two
    canonical wedge tuples S and T: one entry (W, by_m, i, sign) per
    contraction whose merged wedge W is nonzero, in the order theta_S by m,
    then theta_T by n.  The term it gives is sign * v z^{n+m} theta_W with
    v = m[i] when by_m, else n[i]; sign folds the Koszul sign of
    `normalize_wedge` into the parity (-1)^j of the j-th index of S, or
    (-1)^{|S|+j} of the j-th index of T.

    The key is only the pair (S, T), never an exponent or a coefficient,
    and its indices are absolute, so one entry serves every rank that holds
    both wedges: at most 4^rank entries for the highest rank bracketed,
    and the cache has no size option."""
    table = []
    for j, i in enumerate(s):
        w, sign = normalize_wedge(s[:j] + s[j + 1:] + t)
        if sign:
            table.append((w, True, i - 1, -sign if j % 2 else sign))
    for j, i in enumerate(t):
        w, sign = normalize_wedge(s + t[:j] + t[j + 1:])
        if sign:
            table.append((w, False, i - 1, -sign if (len(s) + j) % 2 else sign))
    return tuple(table)


def gerstenhaber_bracket(a: PolyVector, b: PolyVector) -> PolyVector:
    """Schouten-Nijenhuis bracket, one pass over the term pairs.  On monomials

        [z^n theta_S, z^m theta_T]
            = z^{n+m} (iota_m(theta_S) theta_T + (-1)^|S| theta_S iota_n(theta_T)),

    where iota_v contracts a wedge against the exponent vector v as
    `bv_delta` does: the j-th index s_j (0-based) gives (-1)^j v_{s_j}.  This
    is the bracket that Delta generates (Koszul, "Crochet de
    Schouten-Nijenhuis et cohomologie", Asterisque 1985),
    [a, b] = Delta(ab) - Delta(a) b - (-1)^|a| a Delta(b) on homogeneous a;
    `verify bv-axioms` checks the two against each other.

    The wedges, indices and signs of each term pair come from
    `_schouten_table`, keyed only by the canonical wedge pair (S, T); a pair
    with an empty table is skipped before its coefficient product and
    exponent sum are built, and an entry whose exponent entry v is 0 adds
    nothing.  Each coefficient is c * (+-v), the int multiplier on the right.
    """
    a._check_rank(b)
    terms = {}
    for (n, s), ca in a.terms.items():
        for (m, t), cb in b.terms.items():
            table = _schouten_table(s, t)
            if not table:
                continue
            c = ca * cb
            exp = tuple(map(add, n, m))
            for w, by_m, i, sign in table:
                v = m[i] if by_m else n[i]
                if v == 0:
                    continue
                key = (exp, w)
                coeff = c * (v if sign > 0 else -v)
                old = terms.get(key)
                terms[key] = coeff if old is None else old + coeff
    return PolyVector._raw(a.rank, terms)
