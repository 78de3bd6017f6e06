"""Command-line front end.

Every subcommand prints deterministic output (canonical term ordering,
seeded randomness) so reports can be golden-file tested.  JSON envelopes
carry `schema`, the echoed command, the rank, and an exact-arithmetic flag.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
from json.encoder import encode_basestring_ascii as _json_string

from .bvalgebra import bv_delta, gerstenhaber_bracket, wedge
from .cocycle import is_cocycle_on_window
from .densityrep import DensityRepSpec, check_irreducible, extract_finite_sl2_submodule
from .floermodel import floer_report
from .liealg import root_system_report
from .parsing import format_polyvector, parse_coefficient, parse_cochain_spec, parse_polyvector
from .suites import SUITES

SCHEMA_VERSION = 1

# `verify` flags, each passed to the suite parameter of the same name when
# set; --rank fills a `ranks` tuple for suites that sweep several ranks
VERIFY_FLAGS = ("rank", "seed", "cases", "window", "grid", "max_n")

# subcommand -> (help, operand names, name of its kernel among the imports above)
_POLYVECTOR_COMMANDS = {
    "bracket": ("Gerstenhaber bracket of two polyvectors", ("a", "b"), "gerstenhaber_bracket"),
    "wedge": ("graded product of two polyvectors", ("a", "b"), "wedge"),
    "bv": ("BV operator applied to a polyvector", ("a",), "bv_delta"),
}


def _envelope(args, result) -> dict:
    # `rep` and `floer` take no --rank and work at rank 1
    return {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "rank": getattr(args, "rank", 1),
        "exact": True,
        "result": result,
    }


def _json_text(value, newline: str, out: list) -> None:
    """Append to `out` the pieces of the text that `json.dumps(value,
    indent=2, sort_keys=True)` gives, for a value nested at the indent that
    `newline` ("\\n" and two spaces a level) ends with.  Values dispatch on
    their exact type: str, int, dict, list and tuple, then None, True and
    False.  Every result is exact, so a float, a Fraction, a key that is not
    a str, and any subclass of the accepted types raise TypeError."""
    kind = type(value)
    if kind is str:
        out.append(_json_string(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator + _json_string(key) + ": ")
            _json_text(value[key], inner, out)
            separator = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _json_text(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write_json(payload: dict) -> None:
    """Write `payload` as `json.dumps(payload, indent=2, sort_keys=True)`
    would, byte for byte, and a newline, in one write.  With an indent the
    stdlib leaves its C encoder for a slower pure-Python one; this writer
    keeps the C string escaping and builds the rest in one list."""
    out = []
    _json_text(payload, "\n", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _emit(args, result, text: str) -> None:
    if args.json:
        _write_json(_envelope(args, result))
    else:
        sys.stdout.write(text + "\n")


def cmd_polyvector(args):
    """Apply the command's kernel to the parsed operands and render the
    result only in the form that was asked for."""
    _, operands, kernel = _POLYVECTOR_COMMANDS[args.command]
    # looked up on every call, so a tracer or test that rebinds the global is seen
    result = globals()[kernel](*[parse_polyvector(getattr(args, o), args.rank) for o in operands])
    if args.json:
        _write_json(_envelope(args, result.to_json()))
    else:
        sys.stdout.write(format_polyvector(result) + "\n")


def cmd_roots(args):
    report = root_system_report(args.rank)
    lines = [
        f"A_{args.rank} root system on rank-{args.rank} torus",
        f"roots ({report['root_count']}): "
        + " ".join(str(tuple(r)) for r in report["roots"]),
        f"cartan dimension: {report['cartan_dim']}",
        f"matches type A: {report['matches_type_a']}",
    ]
    for name, ambient in sorted(report["origins"].items()):
        lines.append(f"  {name} -> {tuple(ambient)}")
    if args.rank <= 2:
        lines.extend(_ascii_root_diagram(report))
    _emit(args, report, "\n".join(lines))


def _ascii_root_diagram(report):
    """Roots drawn on the H1 lattice (rank <= 2)."""
    coords = [tuple(r[1:]) for r in report["roots"]]
    if report["rank"] == 1:
        cells = {c[0]: "*" for c in coords}
        row = "".join(cells.get(x, "o" if x == 0 else ".") for x in range(-1, 2))
        return ["diagram (H1 line):", "  " + row]
    lines = ["diagram (H1 plane):"]
    points = set(coords)
    for y in range(1, -2, -1):
        row = []
        for x in range(-1, 2):
            if (x, y) in points:
                row.append("*")
            elif (x, y) == (0, 0):
                row.append("o")
            else:
                row.append(".")
        lines.append("  " + " ".join(row))
    return lines


def cmd_cocycle_check(args):
    cochain = parse_cochain_spec(args.spec, args.rank)
    ok = is_cocycle_on_window(cochain, args.rank, args.window)
    result = {"spec": args.spec, "window": args.window, "is_cocycle": ok}
    _emit(args, result, f"is_cocycle: {ok}")
    if not ok:
        raise SystemExit(1)


def cmd_rep(args):
    spec = DensityRepSpec(parse_coefficient(args.alpha), parse_coefficient(args.beta))
    module = extract_finite_sl2_submodule(spec)
    if module is None:
        result = {"alpha": str(spec.alpha), "beta": str(spec.beta), "exists": False}
        _emit(args, result, "no finite sl2 submodule")
        return
    result = {
        "alpha": str(spec.alpha),
        "beta": str(spec.beta),
        "exists": True,
        "dim": module.dim,
        "h_spectrum": module.h_spectrum(),
        "basis": module.basis_exponents,
        "irreducible": check_irreducible(module),
    }
    if args.json:
        result["e"] = [[str(v) for v in row] for row in module.e]
        result["f"] = [[str(v) for v in row] for row in module.f]
    text = (
        f"finite sl2 submodule: dim {module.dim}, "
        f"basis z^{module.basis_exponents}, "
        f"h spectrum {result['h_spectrum']}"
    )
    _emit(args, result, text)


def cmd_floer(args):
    report = floer_report(args.n)
    text = (
        f"V({args.n}): dim {report['dim']}, "
        f"h spectrum {report['h_spectrum']}, "
        f"casimir {report['casimir']}, "
        f"unique orbit: {report['unique_up_to_rescaling']}, "
        f"matches density model: {report['matches_density_model']}"
    )
    _emit(args, report, text)


def cmd_verify(args):
    suite = SUITES[args.suite]
    params = inspect.signature(suite).parameters
    kwargs = {}
    for flag in VERIFY_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        if flag in params:
            kwargs[flag] = value
        elif flag == "rank" and "ranks" in params:
            kwargs["ranks"] = (value,)
        else:
            option = "--" + flag.replace("_", "-")
            raise ValueError(f"suite {args.suite!r} takes no {option}")
    report = suite(**kwargs)
    lines = [f"suite {report['suite']}"]
    for check in report["checks"]:
        status = "PASS" if check["ok"] else "FAIL"
        lines.append(f"  [{status}] {check['name']}")
    lines.append("all passed" if report["passed"] else "FAILURES PRESENT")
    _emit(args, report, "\n".join(lines))
    if not report["passed"]:
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusbv",
        description="Exact BV algebra of torus polyvector fields and its representation theory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, operands, _) in _POLYVECTOR_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for operand in operands:
            p.add_argument(operand)
        p.add_argument("--rank", type=int, default=1)
        p.set_defaults(func=cmd_polyvector)

    p = sub.add_parser("roots", help="type-A root system report")
    p.add_argument("--rank", type=int, default=2)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("cocycle-check", help="window check of a symbolic 1-cochain")
    p.add_argument("spec", help="e.g. alpha=-1/2,beta=[-1/2],g=0")
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--rank", type=int, default=1)
    p.set_defaults(func=cmd_cocycle_check)

    p = sub.add_parser("rep", help="finite sl2 submodule of a density representation")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--extract", action="store_true", help="kept for symmetry; extraction always runs")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("floer", help="forced sl2 action on intersection generators")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_floer)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=sorted(SUITES))
    # unset flags stay None so each suite keeps its own defaults
    for flag in VERIFY_FLAGS:
        p.add_argument("--" + flag.replace("_", "-"), dest=flag, type=int)
    p.set_defaults(func=cmd_verify)

    # each command declares only the flags it reads; all of them take --json
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The full parser and its command map (each command's name to its own
    parser).  parse_args keeps no state between calls, so one parser serves
    them all."""
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser, commands


def _report_error(args, err: ValueError) -> None:
    """One line on stderr; under --json also an error envelope on stdout."""
    message = str(err).replace("\n", " ")
    sys.stderr.write(f"torusbv {args.command}: error: {message}\n")
    if args.json:
        error = {
            "type": type(err).__name__,
            "message": getattr(err, "message", message),
            "position": getattr(err, "position", None),
        }
        _write_json({"schema": SCHEMA_VERSION, "error": error})


def main(argv=None) -> int:
    """Run one `torusbv` command and return 0; any other exit status is
    raised as SystemExit: 1 for a failed check, 2 for a usage error or bad
    input (ParseError, RankMismatchError, any ValueError)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _shared_parser()
    # The full parser hands a command's parser everything after its name and
    # adds only `command`, so a call that parser reads whole skips it; any
    # other argv goes to the full parser, which writes its own usage and errors.
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
    if command is None or extra:
        args = parser.parse_args(argv)
    else:
        args.command = argv[0]
    try:
        args.func(args)
    except ValueError as err:
        _report_error(args, err)
        raise SystemExit(2) from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
