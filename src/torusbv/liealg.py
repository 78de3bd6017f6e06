"""Lie theory on degree-1 polyvector fields: the Witt algebra of the torus,
its Cartan subalgebra, the embedding of sl_{r+1} by restriction of vector
fields from projective space, and the type-A root grading.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from . import matrix
from .bvalgebra import PolyVector, gerstenhaber_bracket
from .laurent import _as_coefficient, _check_int, _check_size


def cartan_subalgebra(rank: int):
    """The abelian subalgebra [theta_1, ..., theta_r]."""
    return [PolyVector.theta(rank, i) for i in range(1, rank + 1)]


class GlMatrixElement:
    """A rational (r+1) x (r+1) matrix acting as the linear vector field
    sum_ij m[i][j] Z_i D_j on the ambient affine space of P^r, stored as
    its nonzero entries {(i, j): int or Fraction}, 0 <= i, j < size, each
    an int when it is integral.  The size and the indices are ints: a bool,
    a float or a Fraction among them raises TypeError."""

    def __init__(self, size: int, entries):
        if type(size) is not int:
            _check_int("size", size)
        if size < 2:
            raise ValueError("matrix must be at least 2x2 (rank r >= 1)")
        clean = {}
        for (i, j), v in entries.items():
            if type(i) is not int or type(j) is not int:
                _check_int("row index", i)
                _check_int("column index", j)
            if not (0 <= i < size and 0 <= j < size):
                raise IndexError(f"({i}, {j}) is not an entry of a {size}x{size} matrix")
            v = _as_coefficient(v)
            if v:
                clean[i, j] = v
        self.size = size
        self.entries = clean

    @classmethod
    def elementary(cls, size: int, i: int, j: int) -> "GlMatrixElement":
        """E_ij = Z_i D_j with 0-based indices i, j in {0, ..., size-1}."""
        return cls(size, {(i, j): 1})

    def commutator(self, other: "GlMatrixElement") -> "GlMatrixElement":
        """ab - ba over the nonzero entries only, by E_ij E_kl = [j = k] E_il."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        out = {}
        for a, b, sign in ((self, other, 1), (other, self, -1)):
            for (i, j), x in a.entries.items():
                for (k, l), y in b.entries.items():
                    if j == k:
                        out[i, l] = out.get((i, l), 0) + x * y * sign
        return GlMatrixElement(self.size, out)


@cache
def _chart(rank: int):
    """The chart of restrict_from_projective at one rank, as tuples: the
    exponents e_0, ..., e_r and, for each j, the (k, sign) terms of
    theta~_j.  One entry per rank, of (r + 1) r + 4r small ints."""
    e = ((0,) * rank,) + tuple(tuple(int(a == b) for b in range(rank)) for a in range(rank))
    theta_tilde = (tuple((k, -1) for k in range(1, rank + 1)),) + tuple(
        ((j, 1),) for j in range(1, rank + 1)
    )
    return e, theta_tilde


def restrict_from_projective(m: GlMatrixElement) -> PolyVector:
    """Restriction of the linear vector field sum m_ij Z_i D_j from P^r to the
    open torus, written in the theta presentation.  Kernel = scalar matrices.

    On the chart Z_0 = 1, z_k = Z_k, each E_ij = Z_i D_j restricts to
    z^{e_i - e_j} theta~_j, with e_0 = 0, theta~_k = theta_k for k >= 1 and
    theta~_0 = -(theta_1 + ... + theta_r): D_j = z_j^{-1} theta_j, and the
    Euler relation Z_0 D_0 + ... + Z_r D_r = 0 gives D_0 = -sum_k theta_k."""
    rank = m.size - 1
    e, theta_tilde = _chart(rank)
    terms = {}
    for (i, j), c in m.entries.items():
        exp = tuple(a - b for a, b in zip(e[i], e[j]))
        for k, sign in theta_tilde[j]:
            key = (exp, (k,))
            v = c if sign > 0 else -c
            old = terms.get(key)
            terms[key] = v if old is None else old + v
    return PolyVector._raw(rank, terms)


def root_grading(x: PolyVector) -> tuple:
    """The root of a homogeneous vector field of H1 class n, in ambient
    coordinates (-n_1 - ... - n_r, n_1, ..., n_r): z_i <-> e_i - e_0.
    Zero and Cartan elements (class 0) map to the zero tuple."""
    if x.is_zero():
        return (0,) * (x.rank + 1)
    classes = {e for e, _ in x.terms}
    if len(classes) != 1:
        raise ValueError("input is not homogeneous in the H1 grading")
    (cls,) = classes
    return (-sum(cls),) + cls


def verify_lie_embedding(rank: int) -> dict:
    """Check that restriction from P^r is a Lie homomorphism on the gl_{r+1}
    basis pairs, that scalars die, and that the image has dimension
    (r+1)^2 - 1.  Returns a report dict whose `pairs` lists all s^4 ordered
    pairs of the s = r + 1 matrix units, in row-major order.

    Only the pairs a < b in that order are decided, s^2 (s^2 - 1) / 2 of
    them; (b, a) takes the verdict of (a, b) and the diagonal is True.  The
    rule rests on three facts: `commutator` is ab - ba, antisymmetric by
    construction; the bracket is graded antisymmetric on degree-1 fields
    (checked by `verify bv-axioms`, and on every ordered basis pair by
    `verify witt-closed-form`); and restriction is linear.  Every image is
    a vector field by construction, since `restrict_from_projective` writes
    only keys (exponent, (k,)), so the pairs go to `gerstenhaber_bracket`
    unchecked."""
    _check_size("rank", rank)
    size = rank + 1
    units = [(i, j) for i in range(size) for j in range(size)]
    basis = [GlMatrixElement.elementary(size, i, j) for i, j in units]
    images = [restrict_from_projective(m) for m in basis]
    decided = {}
    for a, b in combinations(range(len(units)), 2):
        lhs = restrict_from_projective(basis[a].commutator(basis[b]))
        decided[a, b] = decided[b, a] = lhs == gerstenhaber_bracket(images[a], images[b])
    pairs = [
        {"pair": [list(units[a]), list(units[b])], "ok": a == b or decided[a, b]}
        for a in range(len(units))
        for b in range(len(units))
    ]
    image_rank = matrix.rank([v.terms for v in images])
    identity = GlMatrixElement(size, {(i, i): 1 for i in range(size)})
    scalar_killed = restrict_from_projective(identity).is_zero()
    expected_dim = size * size - 1
    return {
        "rank": rank,
        "homomorphism_ok": all(decided.values()),
        "pairs": pairs,
        "image_dimension": image_rank,
        "expected_dimension": expected_dim,
        "scalars_killed": scalar_killed,
        "injective_on_sl": image_rank == expected_dim,
    }


def root_system_report(rank: int) -> dict:
    """Sweep the sl_{r+1} basis image through root_grading and compare with
    the abstract type-A root set."""
    _check_size("rank", rank)
    size = rank + 1
    found = {}
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            image = restrict_from_projective(GlMatrixElement.elementary(size, i, j))
            found[(i, j)] = root_grading(image)
    thetas = cartan_subalgebra(rank)
    expected = {
        tuple(int(c == a) - int(c == b) for c in range(size))
        for a in range(size)
        for b in range(size)
        if a != b
    }
    roots = set(found.values())
    return {
        "rank": rank,
        "roots": sorted(roots),
        "root_count": len(roots),
        "matches_type_a": roots == expected,
        "cartan_dim": matrix.rank([t.terms for t in thetas]),
        "cartan_at_zero": all(root_grading(t) == (0,) * size for t in thetas),
        "origins": {f"E{i}{j}": list(v) for (i, j), v in sorted(found.items())},
    }
