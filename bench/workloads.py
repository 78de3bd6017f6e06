"""Seeded inputs, operations and exact references for the benchmark workloads.

A workload is a fixed list of operations, a *pass*, built from the seed by
the benchmark's own generators; the library receives only these inputs, so
a library change cannot change the input stream.  Each pass is stratified:
the number of operations of each kind and size is fixed and only their
parameters come from the seed, so the cost of a pass barely depends on the
seed and runs on different seeds can be compared.

Every operation carries an independent exact reference.  Library functions
are looked up on their modules at call time, so a tracer that patches the
module bindings sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shlex
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from torusbv import bvalgebra as bv
from torusbv import cli, cocycle, densityrep, floermodel, liealg, parsing


class Op:
    """One closed-loop operation: `fn(*args)` is timed, `check(output)`
    compares the output with the reference and is not timed."""

    __slots__ = ("kind", "fn", "args", "check", "label")

    def __init__(self, kind, fn, args, check, label):
        self.kind = kind
        self.fn = fn
        self.args = args
        self.check = check
        self.label = label


@dataclass
class Workload:
    ops: list  # one pass, in seeded order
    warmup: list  # fixed-size warm-up run before timing
    strata: dict  # kind -> operations per pass
    chunk: int  # operations timed between two runs of the reference loop


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"torusbv-bench/{name}/{seed}")


def _warmup(ops, per_kind):
    """The first `per_kind` operations of every kind, in pass order."""
    seen = {}
    out = []
    for op in ops:
        if seen.get(op.kind, 0) < per_kind:
            seen[op.kind] = seen.get(op.kind, 0) + 1
            out.append(op)
    return out


# ---------------------------------------------------------------------------
# witt-sweep: degree-1 monomial pairs through the derived bracket, and the
# CE differential of the BV and log cocycles at rank 2.
# ---------------------------------------------------------------------------

WITT_BRACKETS_PER_RANK = 800  # ranks 1, 2, 3
WITT_CE_PER_COCHAIN = 100  # BV, log z1, log z2 at rank 2
WITT_EXP_WINDOW = 3
WITT_CE_WINDOW = 2
WITT_CHUNK = 16  # about 1 ms of operations per reference timing


def witt_closed_form(n, i, m, j):
    """[xi_{n,i}, xi_{m,j}] = z^{n+m} (m_i theta_j - n_j theta_i), as terms."""
    s = tuple(a + b for a, b in zip(n, m))
    ref = {(s, (j,)): m[i - 1]}
    ref[(s, (i,))] = ref.get((s, (i,)), 0) - n[j - 1]
    return {key: Fraction(c) for key, c in ref.items() if c}


def _bracket(x, y):
    return bv.gerstenhaber_bracket(x, y)


def _ce(cochain, x, y):
    return cocycle.ce_differential_check(cochain, x, y)


def _terms_equal(expected, rank):
    return lambda out: out.rank == rank and out.terms == expected


def _is_zero(out):
    return len(out.terms) == 0


def witt_sweep(seed: int) -> Workload:
    rng = _rng("witt-sweep", seed)
    ops = []
    for rank in (1, 2, 3):
        for _ in range(WITT_BRACKETS_PER_RANK):
            n = tuple(rng.randint(-WITT_EXP_WINDOW, WITT_EXP_WINDOW) for _ in range(rank))
            m = tuple(rng.randint(-WITT_EXP_WINDOW, WITT_EXP_WINDOW) for _ in range(rank))
            i, j = rng.randint(1, rank), rng.randint(1, rank)
            x, y = bv.PolyVector.xi(rank, n, i), bv.PolyVector.xi(rank, m, j)
            ops.append(Op(
                f"bracket_r{rank}", _bracket, (x, y),
                _terms_equal(witt_closed_form(n, i, m, j), rank),
                f"torusbv bracket --rank {rank} -- {_fmt_xi(n, i)} {_fmt_xi(m, j)}",
            ))
    cochains = {
        "bv": (cocycle.CE1Cochain(2, alpha=1), "alpha=1"),
        "log_z1": (cocycle.CE1Cochain(2, betas=[1, 0]), "beta=[1,0]"),
        "log_z2": (cocycle.CE1Cochain(2, betas=[0, 1]), "beta=[0,1]"),
    }
    for name, (cochain, spec) in cochains.items():
        for _ in range(WITT_CE_PER_COCHAIN):
            n = tuple(rng.randint(-WITT_CE_WINDOW, WITT_CE_WINDOW) for _ in range(2))
            m = tuple(rng.randint(-WITT_CE_WINDOW, WITT_CE_WINDOW) for _ in range(2))
            i, j = rng.randint(1, 2), rng.randint(1, 2)
            x, y = bv.PolyVector.xi(2, n, i), bv.PolyVector.xi(2, m, j)
            ops.append(Op(
                f"ce_{name}", _ce, (cochain, x, y), _is_zero,
                f"ce_differential_check({spec}; {_fmt_xi(n, i)}, {_fmt_xi(m, j)}) at rank 2",
            ))
    rng.shuffle(ops)
    return Workload(ops, _warmup(ops, 4), _count_kinds(ops), WITT_CHUNK)


def _fmt_xi(n, i):
    return format_canonical({(tuple(n), (i,)): Fraction(1)})


# ---------------------------------------------------------------------------
# polyvector-cli: in-process `torusbv.cli.main` on canonical texts of
# multi-term, mixed-degree polyvectors.
# ---------------------------------------------------------------------------

CLI_OPS_PER_STRATUM = 20  # strata: 3 commands x text/json x ranks 1-4
CLI_TERMS = 4
CLI_EXP_WINDOW = 3


def format_canonical(terms) -> str:
    """The library's canonical text, written independently: terms in key
    order, `z<i>^<e>` and `t<i>` factors, unit coefficients omitted."""
    if not terms:
        return "0"
    parts = []
    for exp, wedge in sorted(terms):
        factors = [f"z{i + 1}^{e}" for i, e in enumerate(exp) if e] + [f"t{i}" for i in wedge]
        c = terms[(exp, wedge)]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])


_TERM_SPLIT = re.compile(r"(?<!\^)(?=[+-])")
_COEFF = re.compile(r"\d+(?:/\d+)?")
_VAR = re.compile(r"z(\d+)\^(-?\d+)")
_ODD = re.compile(r"t(\d+)")


def parse_canonical(text: str, rank: int) -> dict:
    """Terms of a canonical text; raises ValueError on anything else."""
    if text == "0":
        return {}
    terms = {}
    for token in _TERM_SPLIT.split(text):
        if not token:
            continue
        coeff = Fraction(-1 if token[0] == "-" else 1)
        exp = [0] * rank
        wedge = []
        for factor in token.lstrip("+-").split("*"):
            if _COEFF.fullmatch(factor):
                coeff *= Fraction(factor)
            elif m := _VAR.fullmatch(factor):
                exp[int(m.group(1)) - 1] += int(m.group(2))
            elif m := _ODD.fullmatch(factor):
                wedge.append(int(m.group(1)))
            else:
                raise ValueError(f"not canonical: {factor!r} in {text!r}")
        key = (tuple(exp), tuple(wedge))
        if key in terms or wedge != sorted(set(wedge)):
            raise ValueError(f"not canonical: {text!r}")
        terms[key] = coeff
    return terms


def random_terms(rng: random.Random, rank: int, count: int) -> dict:
    """`count` distinct terms with at least two cohomological degrees."""
    degrees = rng.sample(range(rank + 1), 2) + [rng.randint(0, rank) for _ in range(count - 2)]
    terms = {}
    for degree in degrees:
        while True:
            exp = tuple(rng.randint(-CLI_EXP_WINDOW, CLI_EXP_WINDOW) for _ in range(rank))
            key = (exp, tuple(sorted(rng.sample(range(1, rank + 1), degree))))
            if key not in terms:
                break
        terms[key] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
    return terms


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), None


def _cli_bv(argv, operand):
    """`torusbv bv`, plus the independent divergence form of the BV
    operator on the same operand: the paper's cross-check Delta = Delta_div."""
    code, text, _ = _cli(argv)
    return code, text, bv.bv_delta_divergence(operand)


_LIBRARY_OPS = {
    "bracket": lambda a, b: bv.gerstenhaber_bracket(a, b),
    "wedge": lambda a, b: bv.wedge(a, b),
    "bv": lambda a: bv.bv_delta(a),
}


class _CliReference:
    """The library result on the parsed operands, computed on first use.

    The parsed operands must equal the generated terms, or every run of the
    operation counts as failed.  For `bv`, the divergence computed by the
    operation must equal the reference too.
    """

    def __init__(self, command, rank, json_mode, texts, operand_terms):
        self.command = command
        self.rank = rank
        self.json_mode = json_mode
        self.texts = texts
        self.operand_terms = operand_terms
        self.expected = None

    def _reference(self):
        operands = [parsing.parse_polyvector(t, self.rank) for t in self.texts]
        if [p.terms for p in operands] != self.operand_terms:
            return False
        return _LIBRARY_OPS[self.command](*operands).terms

    def __call__(self, output) -> bool:
        if self.expected is None:
            self.expected = self._reference()
        code, text, divergence = output
        if code != 0 or self.expected is False:
            return False
        if divergence is not None and divergence.terms != self.expected:
            return False
        if self.json_mode:
            envelope = json.loads(text)
            if (envelope["command"], envelope["rank"]) != (self.command, self.rank):
                return False
            got = {
                (tuple(t["exp"]), tuple(t["wedge"])): Fraction(t["coeff"])
                for t in envelope["result"]
            }
        else:
            got = parse_canonical(text.rstrip("\n"), self.rank)
        return got == self.expected


def polyvector_cli(seed: int) -> Workload:
    rng = _rng("polyvector-cli", seed)
    ops = []
    for command, arity in (("bracket", 2), ("wedge", 2), ("bv", 1)):
        for json_mode in (False, True):
            for rank in (1, 2, 3, 4):
                for _ in range(CLI_OPS_PER_STRATUM):
                    operands = [random_terms(rng, rank, CLI_TERMS) for _ in range(arity)]
                    texts = [format_canonical(t) for t in operands]
                    # `--` because canonical texts may start with '-'
                    argv = [command, "--rank", str(rank)] + ["--json"] * json_mode + ["--", *texts]
                    fn, args = _cli, (argv,)
                    if command == "bv":
                        fn, args = _cli_bv, (argv, bv.PolyVector(rank, operands[0]))
                    ops.append(Op(
                        f"{command}_{'json' if json_mode else 'text'}", fn, args,
                        _CliReference(command, rank, json_mode, texts, operands),
                        "torusbv " + shlex.join(argv),
                    ))
    rng.shuffle(ops)
    return Workload(ops, _warmup(ops, 2), _count_kinds(ops), 1)


# ---------------------------------------------------------------------------
# rep-theory: density modules, the forced Floer action and the projective
# embedding, against the paper's closed forms.
# ---------------------------------------------------------------------------

REP_TWO_ALPHA = range(-8, 3)  # 2*alpha on the half-integer grid
REP_TWO_BETA = range(-8, 9)  # 2*beta, shifted by a seeded integer
REP_BETA_SHIFT = 3
REP_ACTION_WINDOW = (-2, 2, 1)  # verify_lie_action lo, hi, bracket_window
REP_FLOER_N = range(1, 9)
REP_EMBEDDING_RANKS = (1, 2, 3)


def _density(spec, lo, hi, window):
    module = densityrep.extract_finite_sl2_submodule(spec)
    irreducible = None if module is None else densityrep.check_irreducible(module)
    return module, irreducible, densityrep.verify_lie_action(spec, lo, hi, window)


def density_reference(alpha: Fraction, beta: Fraction):
    """(dim, lowest exponent) of the finite sl2 submodule of
    rho_{alpha,beta}, or None: it exists iff alpha <= 0, 2 alpha in Z and
    alpha + beta in Z; then dim = -2 alpha + 1 and the basis starts at
    z^{alpha - beta}."""
    if alpha > 0 or (2 * alpha).denominator != 1 or (alpha + beta).denominator != 1:
        return None
    return int(-2 * alpha) + 1, int(alpha - beta)


def _check_density(alpha, beta):
    ref = density_reference(alpha, beta)

    def check(output):
        module, irreducible, action_ok = output
        if action_ok is not True:
            return False
        if ref is None:
            return module is None
        dim, j0 = ref
        if module is None or module.dim != dim or irreducible is not True:
            return False
        basis = list(range(j0, j0 + dim))
        if module.basis_exponents != basis:
            return False
        # e = rho(xi_1), h = 2 rho(xi_0), f = -rho(xi_-1) on z^j
        for c, j in enumerate(basis):
            for r in range(dim):
                e = j + alpha + beta if r == c + 1 else 0
                h = 2 * (j + beta) if r == c else 0
                f = -(j - alpha + beta) if r == c - 1 else 0
                if (module.e[r][c], module.h[r][c], module.f[r][c]) != (e, h, f):
                    return False
        # h spectrum {-n, -n+2, ..., n}
        n = dim - 1
        return sorted(module.h[t][t] for t in range(dim)) == list(range(-n, n + 1, 2))

    return check


def _floer(n):
    return floermodel.solve_forced_action(n), floermodel.identify_with_density_model(n)


def _check_floer(n):
    def check(output):
        solutions, report = output
        if len(solutions) != 1:
            return False
        action = solutions[0]
        # c_k = a_k b_{k+1} = (k + 1)(n - k)
        if [action.a[k] * action.b[k] for k in range(n)] != [(k + 1) * (n - k) for k in range(n)]:
            return False
        return (
            report["matches"] is True
            and report["h_spectrum"] == list(range(-n, n + 1, 2))
            and Fraction(report["casimir"]) == Fraction(n * (n + 2), 2)
        )

    return check


def _embedding(rank):
    return liealg.verify_lie_embedding(rank), liealg.root_system_report(rank)


def type_a_roots(rank: int):
    """e_a - e_b for a != b in 0..rank, as ambient coordinate tuples."""
    roots = []
    for a, b in product(range(rank + 1), repeat=2):
        if a != b:
            v = [0] * (rank + 1)
            v[a], v[b] = 1, -1
            roots.append(tuple(v))
    return sorted(roots)


def _check_embedding(rank):
    size = rank + 1

    def check(output):
        embedding, roots = output
        return (
            embedding["homomorphism_ok"] is True
            and len(embedding["pairs"]) == size ** 4
            and all(p["ok"] for p in embedding["pairs"])
            and embedding["scalars_killed"] is True
            and embedding["image_dimension"] == size * size - 1
            and embedding["injective_on_sl"] is True
            and roots["root_count"] == rank * (rank + 1)
            and sorted(tuple(r) for r in roots["roots"]) == type_a_roots(rank)
            and roots["matches_type_a"] is True
            and roots["cartan_at_zero"] is True
        )

    return check


def rep_theory(seed: int) -> Workload:
    rng = _rng("rep-theory", seed)
    lo, hi, window = REP_ACTION_WINDOW
    ops = []
    for two_alpha, two_beta in product(REP_TWO_ALPHA, REP_TWO_BETA):
        alpha = Fraction(two_alpha, 2)
        # an integer shift of beta keeps existence and dimension
        beta = Fraction(two_beta, 2) + rng.randint(-REP_BETA_SHIFT, REP_BETA_SHIFT)
        spec = densityrep.DensityRepSpec(alpha, beta)
        ops.append(Op(
            "density", _density, (spec, lo, hi, window), _check_density(alpha, beta),
            f"torusbv rep --alpha={alpha} --beta={beta} --extract",
        ))
    for n in REP_FLOER_N:
        ops.append(Op("floer", _floer, (n,), _check_floer(n), f"torusbv floer --n {n}"))
    for rank in REP_EMBEDDING_RANKS:
        ops.append(Op(
            f"embedding_r{rank}", _embedding, (rank,), _check_embedding(rank),
            f"verify_lie_embedding({rank}); torusbv roots --rank {rank}",
        ))
    rng.shuffle(ops)
    warmup = [op for op in ops if op.kind == "embedding_r1"]
    warmup += [op for op in ops if op.kind == "floer" and op.args == (1,)]
    warmup += [op for op in ops if op.kind == "density"][:2]
    return Workload(ops, warmup, _count_kinds(ops), 1)


def _count_kinds(ops):
    return dict(sorted(Counter(op.kind for op in ops).items()))


WORKLOADS = {
    "witt-sweep": witt_sweep,
    "polyvector-cli": polyvector_cli,
    "rep-theory": rep_theory,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
