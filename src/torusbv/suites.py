"""Seeded property suites behind the CLI `verify` command.

Each suite returns a report dict with a `checks` list of
{"name": ..., "ok": bool} entries and an overall `passed` flag.  Runs are
deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .bvalgebra import (
    PolyVector,
    bv_delta,
    bv_delta_divergence,
    gerstenhaber_bracket,
    wedge,
)
from .cocycle import CE1Cochain, is_cocycle_on_window, module_action, witt_basis
from .densityrep import (
    DensityRepSpec,
    check_irreducible,
    classification_grid,
    shift_isomorphism_check,
    verify_lie_action,
)
from .floermodel import ChordGenerator, end_action, floer_report
from .laurent import LaurentPoly, _check_size
from .liealg import root_system_report, verify_lie_embedding

DEFAULT_SEED = 2024


def random_homogeneous_polyvector(rng: random.Random, rank: int, degree: int, window: int = 3,
                                  max_terms: int = 3) -> PolyVector:
    """Random degree-homogeneous polyvector with exponents in [-window, window]."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(-window, window) for _ in range(rank))
        wdg = tuple(sorted(rng.sample(range(1, rank + 1), degree)))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        key = (exp, wdg)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return PolyVector(rank, terms)


def random_polyvector(rng: random.Random, rank: int, window: int = 3) -> PolyVector:
    out = PolyVector.zero(rank)
    for degree in range(rank + 1):
        if rng.random() < 0.7:
            out = out + random_homogeneous_polyvector(rng, rank, degree, window)
    return out


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


def bv_derived_bracket(a: PolyVector, b: PolyVector) -> PolyVector:
    """The bracket that Delta generates: Delta(ab) - Delta(a) b -
    (-1)^|a| a Delta(b) on homogeneous a, extended bilinearly over the
    cohomological parts a_k.  Delta is linear and the wedge bilinear, so the
    sum over the parts is

        Delta(a b) - Delta(a) b - a~ Delta(b),

    where a~ = sum_k (-1)^k a_k is the parity twist of a: three wedges and
    three Deltas for any mix of degrees."""
    twisted = PolyVector._raw(
        a.rank, {key: -c if len(key[1]) % 2 else c for key, c in a.terms.items()}
    )
    return bv_delta(wedge(a, b)) - wedge(bv_delta(a), b) - wedge(twisted, bv_delta(b))


def bv_axiom_suite(seed: int = DEFAULT_SEED, cases: int = 200, ranks=(1, 2, 3), window: int = 3) -> dict:
    """Delta^2 = 0, graded commutativity, graded antisymmetry, the bracket
    against the one Delta generates, Jacobi, Poisson, H1-homogeneity, and
    agreement of the two BV code paths.  The antisymmetry brackets of each
    pair are the ones compared with `bv_derived_bracket`.  Jacobi and
    Poisson run on cases // 2 triples and H1-homogeneity on cases // 4
    pairs, each at least once.  At window 0 every exponent is 0, so every
    Delta and bracket vanishes and the window must be >= 1."""
    _check_size("cases", cases)
    _check_size("window", window)
    rng = random.Random(seed)
    checks = []

    def check(name, ok):
        checks.append({"name": name, "ok": bool(ok)})

    delta_squared = delta_agree = True
    for _ in range(cases):
        rank = rng.choice(list(ranks))
        a = random_polyvector(rng, rank, window)
        delta_squared &= bv_delta(bv_delta(a)).is_zero()
        delta_agree &= bv_delta(a) == bv_delta_divergence(a)
    check("delta_squared_zero", delta_squared)
    check("delta_contraction_equals_divergence", delta_agree)

    comm = antisym = derived = True
    for _ in range(cases):
        rank = rng.choice(list(ranks))
        da, db = rng.randint(0, rank), rng.randint(0, rank)
        a = random_homogeneous_polyvector(rng, rank, da, window)
        b = random_homogeneous_polyvector(rng, rank, db, window)
        comm &= wedge(a, b) == wedge(b, a).scale(_sign(da * db))
        ab, ba = gerstenhaber_bracket(a, b), gerstenhaber_bracket(b, a)
        antisym &= ab == ba.scale(_sign(da * db))
        derived &= ab == bv_derived_bracket(a, b) and ba == bv_derived_bracket(b, a)
    check("graded_commutativity", comm)
    check("bracket_graded_antisymmetry", antisym)
    check("bracket_equals_bv_derived", derived)

    jacobi = poisson = True
    for _ in range(max(1, cases // 2)):
        rank = rng.choice(list(ranks))
        dx, dy, dz = (rng.randint(0, rank) for _ in range(3))
        x = random_homogeneous_polyvector(rng, rank, dx, 2, 2)
        y = random_homogeneous_polyvector(rng, rank, dy, 2, 2)
        z = random_homogeneous_polyvector(rng, rank, dz, 2, 2)
        jac = (
            gerstenhaber_bracket(gerstenhaber_bracket(x, y), z).scale(_sign(dx * dz))
            + gerstenhaber_bracket(gerstenhaber_bracket(y, z), x).scale(_sign(dy * dx))
            + gerstenhaber_bracket(gerstenhaber_bracket(z, x), y).scale(_sign(dz * dy))
        )
        jacobi &= jac.is_zero()
        lhs = gerstenhaber_bracket(x, wedge(y, z))
        rhs = wedge(gerstenhaber_bracket(x, y), z) + wedge(
            y, gerstenhaber_bracket(x, z)
        ).scale(_sign((dx - 1) * dy))
        poisson &= lhs == rhs
    check("graded_jacobi", jacobi)
    check("poisson_derivation", poisson)

    homogeneous = True
    for _ in range(max(1, cases // 4)):
        rank = rng.choice(list(ranks))
        a = random_homogeneous_polyvector(rng, rank, rng.randint(0, rank), 2, 1)
        b = random_homogeneous_polyvector(rng, rank, rng.randint(0, rank), 2, 1)
        supp_a = {e for (e, _) in a.terms}
        supp_b = {e for (e, _) in b.terms}
        sums = {tuple(x + y for x, y in zip(ea, eb)) for ea in supp_a for eb in supp_b}
        for result in (wedge(a, b), gerstenhaber_bracket(a, b)):
            homogeneous &= {e for (e, _) in result.terms} <= sums
        homogeneous &= {e for (e, _) in bv_delta(a).terms} <= supp_a
    check("h1_grading_homogeneous", homogeneous)

    return _finish("bv-axioms", checks, seed=seed, cases=cases)


def _witt_closed_form_holds(rank: int, window: int) -> bool:
    """[z^n theta_i, z^m theta_j] = z^{n+m}(m_i theta_j - n_j theta_i) for
    every n, m in [-window, window]^rank and every i, j.  The expected terms
    come straight from the formula, with no library arithmetic; for i = j
    the two terms merge, and zero terms are dropped.  Stops at the first
    mismatch."""
    indices = range(1, rank + 1)
    exps = list(product(range(-window, window + 1), repeat=rank))
    xi = {(n, i): PolyVector.xi(rank, n, i) for n in exps for i in indices}
    for n in exps:
        for m in exps:
            s = tuple(x + y for x, y in zip(n, m))
            for i in indices:
                for j in indices:
                    want = {(s, (j,)): m[i - 1]}
                    want[s, (i,)] = want.get((s, (i,)), 0) - n[j - 1]
                    want = {key: c for key, c in want.items() if c}
                    if gerstenhaber_bracket(xi[n, i], xi[m, j]).terms != want:
                        return False
    return True


def witt_closed_form_suite() -> dict:
    """The bracket against its closed form z^{n+m}(m_i theta_j - n_j theta_i):
    at rank 1 on window 4, where it reads (m-n) xi_{n+m}, and at ranks 1-3
    on window 2."""
    checks = [
        {"name": "rank1_bracket_closed_form", "ok": _witt_closed_form_holds(1, 4)},
        {
            "name": "vector_field_bracket_closed_form",
            "ok": all(_witt_closed_form_holds(rank, 2) for rank in (1, 2, 3)),
        },
    ]
    return _finish("witt-closed-form", checks)


def embedding_suite(ranks=(1, 2, 3)) -> dict:
    """Lie homomorphism, kernel, and root system checks for the projective
    restriction at each rank."""
    checks = []
    for rank in ranks:
        report = verify_lie_embedding(rank)
        checks.append({"name": f"rank{rank}_homomorphism", "ok": report["homomorphism_ok"]})
        checks.append({"name": f"rank{rank}_scalars_killed", "ok": report["scalars_killed"]})
        checks.append({"name": f"rank{rank}_injective_on_sl", "ok": report["injective_on_sl"]})
        roots = root_system_report(rank)
        checks.append({"name": f"rank{rank}_root_system", "ok": roots["matches_type_a"]})
        checks.append(
            {"name": f"rank{rank}_root_count", "ok": roots["root_count"] == rank * (rank + 1)}
        )
        checks.append({"name": f"rank{rank}_cartan_at_zero", "ok": roots["cartan_at_zero"]})
    return _finish("embedding", checks)


def cocycle_suite(rank: int = 1, window: int = 4, seed: int = DEFAULT_SEED) -> dict:
    """BV and logarithmic cocycles pass the window check; a coboundary
    passes; the engineered non-cocycle fails; linear combinations pass; the
    closed-form module action equals the bracket action on the window basis
    and three seeded Laurent polynomials."""
    rng = random.Random(seed)
    checks = []
    bv = CE1Cochain(rank, alpha=1)
    checks.append({"name": "bv_cocycle", "ok": is_cocycle_on_window(bv, rank, window)})
    for i in range(1, rank + 1):
        betas = [0] * rank
        betas[i - 1] = 1
        log = CE1Cochain(rank, betas=betas)
        checks.append(
            {"name": f"log_cocycle_z{i}", "ok": is_cocycle_on_window(log, rank, window)}
        )
    g = LaurentPoly(rank, {tuple(rng.randint(-2, 2) for _ in range(rank)): Fraction(rng.randint(1, 3))})
    coboundary = CE1Cochain(rank, exact_part=g)
    checks.append(
        {"name": "coboundary_is_cocycle", "ok": is_cocycle_on_window(coboundary, rank, window)}
    )
    combo = CE1Cochain(rank, alpha=Fraction(-1, 2), betas=[Fraction(3, 7)] * rank, exact_part=g)
    checks.append(
        {"name": "linear_combination", "ok": is_cocycle_on_window(combo, rank, window)}
    )

    def non_cocycle(x):
        # xi_n |-> n^2 z^n at rank 1, extended linearly (engineered failure)
        out = LaurentPoly.zero(x.rank)
        for (exp, wdg), coeff in x.terms.items():
            n = exp[0]
            out = out + LaurentPoly.monomial(x.rank, exp, coeff * n * n)
        return out

    failed = not is_cocycle_on_window(non_cocycle, 1, 2)
    checks.append({"name": "engineered_non_cocycle_fails", "ok": failed})

    # the exact identity Delta([x,y]) = [x, Delta(y)] - [y, Delta(x)]
    bv_identity = True
    basis = list(witt_basis(rank, 2))
    for x in basis:
        for y in basis:
            lhs = bv_delta(gerstenhaber_bracket(x, y))
            rhs = gerstenhaber_bracket(x, bv_delta(y)) - gerstenhaber_bracket(y, bv_delta(x))
            bv_identity &= lhs == rhs
    checks.append({"name": "bv_cocycle_identity_exact_form", "ok": bv_identity})

    # the closed-form module action is the bracket action x.m = [x, m], with
    # m a function (degree-0 polyvector); the bracket has no other degree
    def function(m):
        return PolyVector(rank, {(e, ()): c for e, c in m.terms.items()})

    samples = [
        LaurentPoly(rank, {
            tuple(rng.randint(-2, 2) for _ in range(rank)):
                Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(3)
        })
        for _ in range(3)
    ]
    action_ok = True
    for x in witt_basis(rank, window):
        for m in samples:
            action_ok &= gerstenhaber_bracket(x, function(m)) == function(module_action(x, m))
    checks.append({"name": "module_action_is_bracket_action", "ok": action_ok})
    return _finish("cocycles", checks, rank=rank, window=window)


def rep_classification_suite(grid: int = 8) -> dict:
    """The finite-submodule classification on the half-integer grid, with
    dimension, spectrum, kernel, and irreducibility checks.

    The `irreducibility` line restates a fact of the checked
    `FiniteSl2Module` constructor rather than an independent test: every
    module here comes from that constructor, whose [e, f] = h check forces
    a[t] b[t] = (t+1)(n-t) != 0 on a chain of distinct weights, so
    `check_irreducible` is True by construction."""
    _check_size("grid", grid)
    checks = []
    ok_exist = ok_dim = ok_spectrum = ok_irred = ok_kernels = True
    table = []
    for spec, module in classification_grid(grid):
        alpha, beta = spec.alpha, spec.beta
        expected = alpha <= 0 and (alpha + beta).denominator == 1
        ok_exist &= (module is not None) == expected
        if module is not None:
            n = int(-2 * alpha)
            ok_dim &= module.dim == n + 1
            ok_spectrum &= module.h_spectrum() == list(range(-n, n + 1, 2))
            ok_irred &= check_irreducible(module)
            # raising kernel at weight -alpha, lowering kernel at weight alpha
            top = module.basis_exponents[-1]
            bottom = module.basis_exponents[0]
            ok_kernels &= top + beta == -alpha and bottom + beta == alpha
            table.append({"alpha": str(alpha), "beta": str(beta), "dim": module.dim})
    checks.append({"name": "existence_criterion", "ok": ok_exist})
    checks.append({"name": "dimension_formula", "ok": ok_dim})
    checks.append({"name": "h_spectrum", "ok": ok_spectrum})
    checks.append({"name": "irreducibility", "ok": ok_irred})
    checks.append({"name": "kernel_weights", "ok": ok_kernels})
    report = _finish("rep-classification", checks, grid=grid)
    report["modules"] = table
    return report


def shift_suite(seed: int = DEFAULT_SEED, triples: int = 5) -> dict:
    """Seeded (alpha, beta, m) triples through the shift intertwiner check."""
    _check_size("triples", triples)
    rng = random.Random(seed)
    checks = []
    for t in range(triples):
        alpha = Fraction(rng.randint(-8, 4), 2)
        beta = Fraction(rng.randint(-8, 8), 2)
        m = rng.randint(-5, 5)
        ok = shift_isomorphism_check(alpha, beta, m, -8, 8)
        checks.append({"name": f"shift_{alpha}_{beta}_{m}", "ok": ok})
    return _finish("shift-isomorphism", checks, seed=seed)


def rep_action_suite(seed: int = DEFAULT_SEED, cases: int = 10) -> dict:
    """verify_lie_action on two fixed and `cases` seeded specs over the
    window [-8, 8]."""
    _check_size("cases", cases)
    rng = random.Random(seed)
    checks = []
    specs = [DensityRepSpec(0, 0), DensityRepSpec(Fraction(1, 2), 0)]
    for _ in range(cases):
        specs.append(
            DensityRepSpec(Fraction(rng.randint(-8, 8), 2), Fraction(rng.randint(-8, 8), 2))
        )
    for spec in specs:
        ok = verify_lie_action(spec, -8, 8, bracket_window=3)
        checks.append({"name": f"lie_action_{spec.alpha}_{spec.beta}", "ok": ok})
    return _finish("rep-action", checks, seed=seed)


def floer_suite(max_n: int = 6) -> dict:
    """Uniqueness, Casimir, stability, and density-model match for each n."""
    _check_size("max_n", max_n)
    checks = []
    for n in range(1, max_n + 1):
        report = floer_report(n)
        checks += [
            {"name": f"n{n}_unique_orbit", "ok": report["unique_up_to_rescaling"]},
            {"name": f"n{n}_casimir", "ok": report["casimir"] == str(Fraction(n * (n + 2), 2))},
            {"name": f"n{n}_h_spectrum", "ok": report["h_spectrum"] == list(range(-n, n + 1, 2))},
            {"name": f"n{n}_density_match", "ok": report["matches_density_model"]},
        ]
    # end-action bracket compatibility on the plus end
    end_ok = True
    n = 1

    def apply_two(j_outer, j_inner, gen):
        c_inner, g_inner = end_action(j_inner, gen, n)
        if g_inner is None:
            return 0, None
        c_outer, g_outer = end_action(j_outer, g_inner, n)
        return c_inner * c_outer, g_outer

    for j1 in range(1, 4):
        for j2 in range(1, 4):
            for k in range(0, 6):
                gen = (
                    ChordGenerator("intersection", n)
                    if k == 0
                    else ChordGenerator("proper_plus", n + k)
                )
                c12, g12 = apply_two(j1, j2, gen)
                c21, g21 = apply_two(j2, j1, gen)
                cref, gref = end_action(j1 + j2, gen, n)
                commutator = c12 - c21
                expected = (j2 - j1) * cref
                end_ok &= commutator == expected
                if commutator:
                    end_ok &= g12 == g21 == gref
    checks.append({"name": "end_action_bracket_consistency", "ok": end_ok})
    return _finish("floer", checks, max_n=max_n)


SUITES = {
    "bv-axioms": bv_axiom_suite,
    "witt-closed-form": witt_closed_form_suite,
    "embedding": embedding_suite,
    "cocycles": cocycle_suite,
    "rep-classification": rep_classification_suite,
    "rep-action": rep_action_suite,
    "shift-isomorphism": shift_suite,
    "floer": floer_suite,
}


def _finish(name: str, checks, **params) -> dict:
    return {
        "suite": name,
        "params": params,
        "checks": checks,
        "passed": all(c["ok"] for c in checks),
    }
