"""Combinatorial model of the degree-zero wrapped complex between a
Lagrangian and its n-th twist on the cylinder.

The generators are intersection generators (grading indices 0..n) plus
proper chords winding around either end.  Only the structural constraints
with a geometric proof are hard-coded: the grading operator h = 2k - n on
intersection generator k, the end-actions k * v_{+-, k+j}, and the
highest/lowest weight kernels.  The interior raising/lowering coefficients
are *derived* by solving the resulting polynomial system, which has a
single solution up to rescaling the basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .densityrep import DensityRepSpec, FiniteSl2Module, extract_finite_sl2_submodule
from .laurent import _check_size


@dataclass(frozen=True)
class ChordGenerator:
    kind: str  # intersection | proper_plus | proper_minus
    grading_index: int

    def __post_init__(self):
        if self.kind not in ("intersection", "proper_plus", "proper_minus"):
            raise ValueError(f"unknown generator kind {self.kind!r}")

    def winding(self, n: int) -> int:
        """The winding label k: v_{+,k} has grading index n + k, v_{-,k}
        has grading index k, and intersection endpoints are k = 0."""
        if self.kind == "proper_minus" or (self.kind == "intersection" and self.grading_index == 0):
            return self.grading_index
        return self.grading_index - n


def end_action(j: int, g: ChordGenerator, n: int):
    """Action of xi_j on an end generator: k * v_{+-, k+j}.

    Defined only in the proved regimes: j > 0 on the plus end (v_{+,k},
    k >= 0) and j < 0 on the minus end (v_{-,k}, k <= 0).  Returns a
    (coefficient, generator) pair; the generator is None when the
    coefficient vanishes.
    """
    if j == 0:
        raise ValueError("j must be nonzero; xi_0 acts diagonally")
    k = g.winding(n)
    if j > 0:
        on_plus_end = g.kind == "proper_plus" or (g.kind == "intersection" and g.grading_index == n)
        if not on_plus_end or k < 0:
            raise ValueError(f"xi_{j} end action is only defined on v_+ generators")
        if k == 0:
            return 0, None
        return k, ChordGenerator("proper_plus", n + k + j)
    on_minus_end = g.kind == "proper_minus" or (g.kind == "intersection" and g.grading_index == 0)
    if not on_minus_end or k > 0:
        raise ValueError(f"xi_{j} end action is only defined on v_- generators")
    if k == 0:
        return 0, None
    return k, ChordGenerator("proper_minus", k + j)


def solve_forced_action(n: int):
    """Solve for all sl2 actions on the intersection span consistent with
    the proved constraints, up to basis rescaling.

    The constraints are: h diagonal with entries 2k - n (eigenvalue
    differences plus symmetric normalization), e raising and f lowering by
    one grading step, the boundary kernels e x_n = 0 and f x_0 = 0, and the
    matrix relation [e, f] = h ([h, e] = 2e and [h, f] = -2f hold
    identically for any raising/lowering pair).  On x_k the relation reads

        b_k a_{k-1} - a_k b_{k+1} = 2k - n

    so the products c_k = a_k b_{k+1} satisfy c_{k-1} - c_k = 2k - n with
    c_{-1} = c_n = 0, forcing c_k = (k+1)(n-k) != 0; hence every a_k is
    nonzero and the rescaling group acts transitively on solutions.  The
    chain's own [e, f] = h check at x_n is the top-boundary condition
    c_n = 0.

    Returns the single orbit in canonical form a_k = n - k (so b follows as
    b_{k+1} = c_k / a_k = k + 1), as a one-element list holding the weight
    chain with a[k] = a_k and b[k] = b_{k+1}; the list form is what the
    benchmark's reference check reads.  Each division must be exact, or
    ValueError is raised; the chain's [e, f] = h check then compares every
    product a_k b_{k+1} with the forced (k+1)(n-k) and raises ValueError on
    a mismatch.
    """
    _check_size("n", n)
    a = [n - k for k in range(n)]
    b = []
    for k, (c_k, a_k) in enumerate(zip(_telescoped_products(n), a)):
        b_k, remainder = divmod(c_k, a_k)
        if remainder:
            raise ValueError(f"c_{k} = {c_k} is not a multiple of a_{k} = {a_k}")
        b.append(b_k)
    return [FiniteSl2Module(range(n + 1), [2 * k - n for k in range(n + 1)], a, b)]


def _telescoped_products(n: int) -> list:
    """c_0, ..., c_{n-1} from c_{k-1} - c_k = 2k - n and c_{-1} = 0."""
    return list(accumulate(n - 2 * k for k in range(n)))


def casimir_scalar(module: FiniteSl2Module):
    """The scalar by which ef + fe + h^2/2 acts, or None if not scalar."""
    values = module.casimir()
    return values[0] if all(v == values[0] for v in values) else None


def identify_with_density_model(n: int) -> dict:
    """Match the forced action on intersection generators with the density
    submodule at alpha = beta = -n/2, using the rescaling freedom.

    Finds the diagonal change of basis x_k -> u_k z^k intertwining e, then
    checks that it intertwines h (the weights agree) and f as well.  Returns
    a report with the rescaling used.
    """
    (floer,) = solve_forced_action(n)
    density = extract_finite_sl2_submodule(DensityRepSpec(Fraction(-n, 2), Fraction(-n, 2)))
    # T = diag(u) with T e_floer = e_density T: u_{k+1} a_floer[k] = a_density[k] u_k
    u = [Fraction(1)]
    for k in range(n):
        u.append(u[k] * Fraction(density.a[k], floer.a[k]))
    # T h = h T iff the weights agree; T f_floer = f_density T on the chain
    matches = floer.weights == density.weights and all(
        u[k] * floer.b[k] == density.b[k] * u[k + 1] for k in range(n)
    )
    return {
        "n": n,
        "matches": matches,
        "rescaling": [str(v) for v in u],
        "h_spectrum": floer.h_spectrum(),
        "casimir": str(casimir_scalar(floer)),
    }


def floer_report(n: int) -> dict:
    """Full summary for the CLI: dimension, spectrum, uniqueness, Casimir
    scalar, and the density-model match.  The forced chain is unique up to
    rescaling when every step product a_k b_k is nonzero: the rescaling
    x_k -> u_k x_k keeps each product, and with all of them nonzero it
    moves a_k to any nonzero value."""
    (module,) = solve_forced_action(n)
    match = identify_with_density_model(n)
    return {
        "n": n,
        "dim": n + 1,
        "unique_up_to_rescaling": all(x * y for x, y in zip(module.a, module.b)),
        "h_spectrum": match["h_spectrum"],
        "casimir": match["casimir"],
        "matches_density_model": match["matches"],
    }
