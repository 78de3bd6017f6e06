import argparse
import contextlib
import functools
import io
import json
import random
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest
from test_cli_golden import COMMANDS as GOLDEN_COMMANDS
from test_cli_golden import run_in_process

from torusbv import cli, suites
from torusbv.bvalgebra import PolyVector, gerstenhaber_bracket
from torusbv.cli import SUITES, main
from torusbv.cocycle import CE1Cochain
from torusbv.laurent import RankMismatchError
from torusbv.parsing import (
    ParseError,
    _parse_term,
    _split_terms,
    format_polyvector,
    parse_cochain_spec,
    parse_coefficient,
    parse_laurent,
    parse_polyvector,
)
from torusbv.suites import random_polyvector


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "torusbv.cli", *args],
        capture_output=True,
        text=False,
    )
    return proc.returncode, proc.stdout


def run_cli_full(args):
    proc = subprocess.run(
        [sys.executable, "-m", "torusbv.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_basic_forms():
    assert parse_polyvector("z^1*t1", 1) == parse_polyvector("z*t1", 1)
    pv = parse_polyvector("3/2*z1^-2*z2^3*t1", 2)
    assert format_polyvector(pv) == "3/2*z1^-2*z2^3*t1"
    pv = parse_polyvector("z^(1,-2)*t1*t2", 2)
    assert format_polyvector(pv) == "z1^1*z2^-2*t1*t2"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_polyvector("z^", 1)
    with pytest.raises(ParseError):
        parse_polyvector("q3", 1)
    with pytest.raises(ValueError):
        parse_laurent("t1", 1)


def test_laurent_with_a_theta_factor_is_a_parse_error_at_its_term():
    # the first term whose theta factors survive the merge: z*t1*t1 is 0,
    # and t1 cancels against -t1 in the last case
    cases = [("t1", 0), ("z+z*t1", 1), ("z - 2*t1*z + t1", 2), ("3*z^2+z*t1*t1-z^-1*θ1", 13), ("t1+2*z*t1-t1", 2)]
    for text, position in cases:
        with pytest.raises(ParseError, match="nonzero cohomological degree") as err:
            parse_laurent(text, 1)
        assert err.value.position == position, text
    # the degree is read after the terms merge: these cancel to degree 0
    assert parse_laurent("t1-t1", 1).is_zero()
    assert parse_laurent("z+z*t1*t1", 1) == parse_laurent("z", 1)


def test_parse_zero_denominator_is_a_parse_error_at_the_factor():
    with pytest.raises(ParseError) as err:
        parse_polyvector("1/0*t1", 1)
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse_polyvector("t2 + 3*z1*0/0*t1", 2)
    assert err.value.position == 10
    # a factor that fails after a valid one is located too
    with pytest.raises(ParseError) as err:
        parse_polyvector(" -2*z1*q3", 2)
    assert err.value.position == 7


# (text, rank, ParseError position, message): one entry or more per kind of
# message; zero denominators are also pinned above
ERROR_POSITIONS = [
    ("z^", 1, 0, "unrecognized factor 'z^'"),
    ("q3", 1, 0, "unrecognized factor 'q3'"),
    ("z1*t1 + (z2", 2, 11, "unbalanced '('"),
    ("z1)*t1", 2, 2, "unbalanced ')'"),
    ("t1 + ", 1, 3, "empty term"),
    ("t1 * * z1", 1, 5, "empty factor"),
    ("z^(1,2,3)*t1", 2, 0, "exponent tuple has 3 entries, expected 2"),
    ("z3*t1", 2, 0, "variable z3 out of range for rank 2"),
    ("z1^2*t3", 2, 5, "generator t3 out of range for rank 2"),
    ("  z1 - 2*z5^3", 3, 9, "variable z5 out of range for rank 3"),
    ("t1 - -", 1, 3, "empty term"),
    ("3*z^(1,)", 2, 2, "unrecognized factor 'z^(1,)'"),
    ("", 1, 0, "empty input"),
    ("1.5*t1", 1, 0, "unrecognized factor '1.5'"),
    ("z1 - 1/0", 1, 5, "zero denominator in '1/0'"),
    ("t1*", 1, 3, "empty factor"),
    ("z^(1,2)*t1", 1, 0, "exponent tuple has 2 entries, expected 1"),
    ("t2*z0", 2, 3, "variable z0 out of range for rank 2"),
    ("(z1", 1, 3, "unbalanced '('"),
    ("z1*t1)", 1, 5, "unbalanced ')'"),
    # the generator as typed, and a bare z (a grammar form) above rank 1
    ("θ0", 1, 0, "generator θ0 out of range for rank 1"),
    ("z^2", 2, 0, "bare z in 'z^2' needs rank 1 (write 'z1^2')"),
    ("t1*z", 3, 3, "bare z in 'z' needs rank 1 (write 'z1')"),
]


@pytest.mark.parametrize(
    "text,rank,position,message",
    ERROR_POSITIONS,
    ids=[f"{text}-{rank}-{position}" for text, rank, position, _ in ERROR_POSITIONS],
)
def test_parse_error_positions(text, rank, position, message):
    with pytest.raises(ParseError) as err:
        parse_polyvector(text, rank)
    assert (err.value.position, err.value.message) == (position, message)


def test_parse_a_minus_minus_b():
    pv = parse_polyvector("z1*t1 - -z1^2*t1", 1)
    assert format_polyvector(pv) == "z1^1*t1+z1^2*t1"
    assert parse_polyvector("z1*t1 + -z1^2*t1", 1) == parse_polyvector("z1*t1 - z1^2*t1", 1)
    assert parse_polyvector("t1 -+- t1", 1) == parse_polyvector("2*t1", 1)
    # a run of signs is one term's prefix, so the error is at the factor
    with pytest.raises(ParseError) as err:
        parse_polyvector("z1*t1 -+- q", 1)
    assert err.value.position == 10


def test_parse_coefficient():
    assert parse_coefficient("-3/2") == Fraction(-3, 2)
    assert parse_coefficient(" 4 ") == 4
    assert parse_coefficient("+5") == 5
    for text, message in (
        ("1/0", "zero denominator"), ("abc", "not a rational"), ("", "not a"),
        ("-0.5", "not a rational"), ("1_000", "not a rational"), ("1e2", "not a rational"),
        ("3/-2", "not a rational"),
    ):
        with pytest.raises(ParseError) as err:
            parse_coefficient(text, 7)
        assert err.value.position == 7
        assert err.value.message.startswith(message)


def fold_parse(text, rank):
    """The former parser: one validated monomial added per term."""
    if text.strip() == "0":
        return PolyVector.zero(rank)
    result = PolyVector.zero(rank)
    for term, offset in _split_terms(text):
        coeff, exp, wedge = _parse_term(term, offset, rank)
        result = result + PolyVector.monomial(rank, exp, wedge, coeff)
    return result


def random_term(rng, rank):
    """`*`-separated factors in every accepted spelling, odd generators in
    any order and possibly repeated."""
    factors = []
    if rng.random() < 0.5:
        factors.append(rng.choice(["2", "3/2", "-1/3", "0", "7"]))
    for _ in range(rng.randint(0, 2)):
        form = rng.randrange(4 if rank == 1 else 3)
        if form == 0:
            factors.append(f"z{rng.randint(1, rank)}^{rng.randint(-3, 3)}")
        elif form == 1:
            factors.append(f"z{rng.randint(1, rank)}")
        elif form == 2:
            factors.append("z^(" + ",".join(str(rng.randint(-2, 2)) for _ in range(rank)) + ")")
        else:
            factors.append(f"z^{rng.randint(-3, 3)}")
    factors += [f"t{i}" for i in rng.choices(range(1, rank + 1), k=rng.randint(0, rank + 1))]
    rng.shuffle(factors)
    return "*".join(factors) or "1"


def random_text(rng, rank):
    """Several terms; some repeat an earlier term, some with the opposite
    sign so that they cancel."""
    terms = []
    for _ in range(rng.randint(1, 6)):
        if terms and rng.random() < 0.4:
            sign, term = rng.choice(terms)
            terms.append((rng.choice([sign, "-" if sign == "+" else "+"]), term))
        else:
            terms.append((rng.choice(["+", "-", "- -", "+ -"]), random_term(rng, rank)))
    return " ".join(f"{sign} {term}" for sign, term in terms)


def constructor_parse(text, rank):
    """The terms as the validating constructor builds them from the raw
    (exponent, wedge) keys of `_parse_term`, summed before it sorts."""
    if text.strip() == "0":
        return {}
    raw = {}
    for term, offset in _split_terms(text):
        coeff, exp, wedge = _parse_term(term, offset, rank)
        raw[exp, wedge] = raw.get((exp, wedge), 0) + coeff
    return PolyVector(rank, raw).terms


def typed(terms):
    return {key: (type(c), c) for key, c in terms.items()}


def test_one_pass_parse_equals_monomial_fold():
    rng = random.Random(4)
    zero = repeated = 0
    for rank in (1, 2, 3, 4):
        for _ in range(300):
            text = random_text(rng, rank)
            got = parse_polyvector(text, rank)
            assert got == fold_parse(text, rank), text
            # Fraction(2, 1) == 2, so the coefficient types are compared too
            assert typed(got.terms) == typed(constructor_parse(text, rank)), text
            zero += got.is_zero()
            repeated += any(f"t{i}*t{i}" in text for i in range(1, rank + 1))
    assert zero > 50 and repeated > 50
    for text, rank in (
        ("t2*t1 + t1*t2", 2), ("t1*t1", 1), ("z^(1,-2)*t2*t1", 2), ("0", 3),
        ("1/2*t1 + 1/2*t1", 1), ("t2*t1 - t2*t1 + z1 + t1*t2", 2), ("t1*t1*3", 1),
        ("3/3*z^(1,1)*t2", 2),
    ):
        got = parse_polyvector(text, rank)
        assert got == fold_parse(text, rank), text
        assert typed(got.terms) == typed(constructor_parse(text, rank)), text
    assert typed(parse_polyvector("1/2*t1 + 1/2*t1", 1).terms) == {((0,), (1,)): (int, 1)}
    assert typed(parse_polyvector("3/3*z^(1,1)*t2", 2).terms) == {((1, 1), (2,)): (int, 1)}


def char_split(text):
    """The former term splitter: one step per character, the current term
    rebuilt as a string."""
    terms = []
    depth = 0
    current = ""
    start = 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", pos)
        elif ch in "+-" and depth == 0 and current.strip():
            prev = current.rstrip()[-1:]
            if prev not in "^,*(+-":
                terms.append((current, start))
                current = ""
                start = pos
        current += ch
    if depth != 0:
        raise ParseError("unbalanced '('", len(text))
    if current.strip():
        terms.append((current, start))
    elif not terms:
        raise ParseError("empty input", 0)
    return terms


def split_outcome(split, text):
    try:
        return split(text)
    except ParseError as err:
        return err.message, err.position


SPLIT_PIECES = ["t1", "z", "z2^-3", "z^(1,-2)", "z^(-1, 2)", "3/2", "*", " ", "  ", "+", "-",
                "+ -", "--", "- -", "(", ")", "^", ",", "\t"]


def random_split_text(rng):
    """A term text from `random_text`, or loose pieces, with spaces, sign
    runs and stray parentheses put in at random places."""
    if rng.random() < 0.5:
        text = random_text(rng, rng.randint(1, 3)).replace("z^(", rng.choice(["z^(", "z^( "]))
    else:
        text = "".join(rng.choices(SPLIT_PIECES, k=rng.randint(0, 10)))
    for _ in range(rng.choice([0, 0, 1, 2])):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(["(", ")", " ", "- ", "+-"]) + text[at:]
    return text


def test_split_terms_equals_the_character_loop():
    rng = random.Random(24)
    seen = {}
    for _ in range(500):
        text = random_split_text(rng)
        got = split_outcome(_split_terms, text)
        assert got == split_outcome(char_split, text), repr(text)
        kind = got[0] if isinstance(got, tuple) else "terms" if len(got) == 1 else "split"
        seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {"split", "terms", "unbalanced ')'", "unbalanced '('", "empty input"}
    assert min(seen.values()) >= 10, seen


# The grammar's characters, the cocycle-spec keys and a few whole factors, so
# that some texts read as values, plus a tab, a non-ASCII letter and NUL.
FUZZ_PIECES = [*"0123456789zt θ^()+-*/,=[]", "\t", "é", "\0",
               "z1", "z2^-3", "z^(1,-2)", "t2", "3/2", "alpha=", "beta=[", "g="]
READERS = {
    "polyvector": lambda text: parse_polyvector(text, 2),
    "laurent": lambda text: parse_laurent(text, 2),
    "cochain_spec": lambda text: parse_cochain_spec(text, 2),
    "coefficient": parse_coefficient,
}


def test_readers_return_or_raise_a_parse_error_inside_the_text():
    # a seeded fuzz of the four readers at rank 2: each text is read or
    # raises ParseError at a position in 0..len(text); no message is pinned
    rng = random.Random(7)
    read = dict.fromkeys(READERS, 0)
    for _ in range(3000):
        text = "".join(rng.choices(FUZZ_PIECES, k=rng.randint(0, 8)))
        for name, reader in READERS.items():
            try:
                reader(text)
            except ParseError as err:
                assert 0 <= err.position <= len(text), (name, text, err.position)
            else:
                read[name] += 1
    assert min(read.values()) > 0, read


@pytest.mark.parametrize("text", ["", " ", "\t\n "])
def test_parse_empty_input_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_polyvector(text, 1)
    with pytest.raises(ParseError):
        parse_laurent(text, 1)
    assert parse_polyvector(" 0 ", 1).is_zero()


def test_round_trip_100_random_elements():
    rng = random.Random(321)
    count = 0
    while count < 100:
        rank = rng.choice([1, 2, 3])
        pv = random_polyvector(rng, rank)
        if pv.is_zero():
            continue
        count += 1
        printed = format_polyvector(pv)
        assert parse_polyvector(printed, rank) == pv


def test_cli_bracket_witt():
    code, out = run_cli(["bracket", "z^1*t1", "z^-1*t1", "--rank", "1"])
    assert code == 0
    assert out.decode().strip() == "-2*t1"


def test_cli_bracket_trivial():
    code, out = run_cli(["bracket", "t1", "t1"])
    assert code == 0
    assert out.decode().strip() == "0"


def test_cli_bracket_rank2_module():
    code, out = run_cli(["bracket", "z^(1,0)*t1", "z^(0,1)", "--rank", "2"])
    assert code == 0
    assert out.decode().strip() == "0"


def test_cli_bv():
    code, out = run_cli(["bv", "z^5*t1"])
    assert code == 0
    assert out.decode().strip() == "5*z1^5"


def test_cli_wedge():
    code, out = run_cli(["wedge", "t2", "t1", "--rank", "2"])
    assert code == 0
    assert out.decode().strip() == "-t1*t2"


def test_cli_roots_counts():
    code, out = run_cli(["roots", "--rank", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["result"]["root_count"] == 2

    code, out = run_cli(["roots", "--rank", "2", "--json"])
    payload = json.loads(out)
    assert payload["result"]["root_count"] == 6
    assert payload["result"]["cartan_dim"] == 2


def test_cli_rep_extract():
    code, out = run_cli(["rep", "--alpha=-3/2", "--beta=-3/2", "--extract", "--json"])
    assert code == 0
    payload = json.loads(out)
    result = payload["result"]
    assert result["exists"]
    assert result["dim"] == 4
    assert result["h_spectrum"] == [-3, -1, 1, 3]
    assert result["irreducible"]


def test_cli_rep_reports_irreducibility_above_dim_5():
    code, out = run_cli(["rep", "--alpha=-4", "--beta=0", "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dim"] == 9
    assert result["irreducible"] is True


def test_cli_embedding_and_roots_at_rank_4():
    code, out = run_cli(["verify", "embedding", "--rank", "4"])
    assert code == 0
    assert "[PASS] rank4_homomorphism" in out.decode()
    assert out.decode().endswith("all passed\n")
    code, out = run_cli(["roots", "--rank", "4"])
    assert code == 0
    text = out.decode()
    assert "roots (20)" in text and "matches type A: True" in text
    assert "diagram" not in text


def test_cli_rep_no_module():
    code, out = run_cli(["rep", "--alpha", "1/2", "--beta", "1/2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["exists"] is False


def test_cli_floer():
    code, out = run_cli(["floer", "--n", "3", "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dim"] == 4
    assert result["h_spectrum"] == [-3, -1, 1, 3]
    assert result["casimir"] == "15/2"
    assert result["unique_up_to_rescaling"]
    assert result["matches_density_model"]


def test_cli_cocycle_check_pass_and_fail_status(monkeypatch, capsys):
    code, out = run_cli(["cocycle-check", "alpha=-1/2,beta=[-1/2],g=0", "--window", "3"])
    assert code == 0
    assert "is_cocycle: True" in out.decode()
    # every spec the grammar accepts is a cocycle, so the failure path needs
    # a window check that fails
    monkeypatch.setattr(cli, "is_cocycle_on_window", lambda cochain, rank, window: False)
    for flags in ([], ["--json"]):
        with pytest.raises(SystemExit) as exc:
            main(["cocycle-check", "alpha=1", "--window", "1", *flags])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        if flags:
            assert json.loads(captured.out)["result"]["is_cocycle"] is False
        else:
            assert captured.out == "is_cocycle: False\n"


# commas inside the `(...)` of a tuple exponent, like those inside `[...]`,
# do not split spec fields
@pytest.mark.parametrize("spec", ["g=z^(1,2)", "alpha=1,g=z^(1,2)+z^(0,1),beta=[0,1]"])
def test_cocycle_check_reads_tuple_exponents_in_g(spec, capsys):
    assert main(["cocycle-check", spec, "--rank", "2", "--window", "1"]) == 0
    assert capsys.readouterr() == ("is_cocycle: True\n", "")


def test_cli_verify_exit_status_and_determinism():
    args = ["verify", "rep-classification", "--grid", "6", "--json"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_verify_embedding_text_report():
    code, out = run_cli(["verify", "embedding"])
    assert code == 0
    text = out.decode()
    assert "all passed" in text
    assert "FAIL" not in text.replace("FAILURES PRESENT", "")


def test_cli_seeded_suite_determinism():
    args = ["verify", "cocycles", "--window", "2", "--seed", "7", "--json"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_main_returns_zero_in_process(capsys):
    assert main(["bracket", "z^1*t1", "z^-1*t1", "--rank", "1"]) == 0
    assert capsys.readouterr().out.strip() == "-2*t1"


def test_main_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "not-a-suite"])


def test_verify_rejects_flag_the_suite_does_not_take(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "floer", "--rank", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--rank" in captured.err


def test_verify_passes_only_the_flags_given(monkeypatch, capsys):
    real = SUITES["bv-axioms"]
    calls = []

    @functools.wraps(real)
    def spy(**kwargs):
        calls.append(kwargs)
        return {"suite": "bv-axioms", "params": {}, "checks": [], "passed": True}

    monkeypatch.setitem(SUITES, "bv-axioms", spy)
    assert main(["verify", "bv-axioms"]) == 0
    assert main(["verify", "bv-axioms", "--rank", "2", "--window", "5"]) == 0
    assert calls == [{}, {"ranks": (2,), "window": 5}]


# (argv, envelope rank): `rep` and `floer` take no --rank and work at rank 1;
# `verify` without --rank leaves each suite its own ranks
ENVELOPE_RANKS = [
    (["bracket", "z1*t1", "t2", "--rank", "2"], 2),
    (["wedge", "t1", "t3", "--rank", "3"], 3),
    (["bv", "z1*t1"], 1),
    (["roots", "--rank", "1"], 1),
    (["cocycle-check", "alpha=1", "--rank", "2", "--window", "1"], 2),
    (["rep", "--alpha", "0", "--beta", "0"], 1),
    (["floer", "--n", "1"], 1),
    (["verify", "floer", "--max-n", "1"], None),
    (["verify", "embedding", "--rank", "1"], 1),
]


def test_verify_json_envelope_rank(capsys):
    assert {argv[0] for argv, _ in ENVELOPE_RANKS} == {
        "bracket", "wedge", "bv", "roots", "cocycle-check", "rep", "floer", "verify"
    }
    for argv, rank in ENVELOPE_RANKS:
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["command"], payload["rank"]) == (argv[0], rank)
    # the last case: `--rank 1` reaches the embedding suite as ranks=(1,)
    assert all(c["name"].startswith("rank1_") for c in payload["result"]["checks"])


def written_json(payload):
    """What `cli._write_json` writes for `payload`, and in how many writes."""
    writes = []
    out = io.StringIO()
    out.write = writes.append
    with contextlib.redirect_stdout(out):
        cli._write_json(payload)
    return "".join(writes), len(writes)


def dumps_oracle(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_json_writer_matches_json_dumps_on_every_golden_payload(monkeypatch):
    payloads = []
    real = cli._write_json
    monkeypatch.setattr(cli, "_write_json", lambda payload: payloads.append(payload) or real(payload))
    json_commands = [c for c in GOLDEN_COMMANDS if "--json" in c.split()]
    for command in json_commands:
        run_in_process(command)
    assert len(payloads) == len(json_commands)
    monkeypatch.undo()
    for payload in payloads:
        assert written_json(payload) == (dumps_oracle(payload), 1)


JSON_STRINGS = ["", "a", "θ1", 'say "x"', "back\\slash", "two\nlines", "\x01", "tab\t", "z1^-2*t1", "/", "∂é"]


def random_json(rng, depth=0):
    """A payload of the types the writer takes: nested dicts, lists and
    tuples (empty ones too), ints up to 30 digits, True, False, None and
    strings that need escaping."""
    kind = rng.randrange(8 if depth < 4 else 5)
    if kind == 0:
        return rng.choice(JSON_STRINGS) + rng.choice(JSON_STRINGS)
    if kind == 1:
        return rng.choice([0, 1, -1, rng.randint(-10**30, 10**30), -(10**29)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind in (3, 4):
        return rng.choice(JSON_STRINGS)
    items = [random_json(rng, depth + 1) for _ in range(rng.choice([0, 1, 2, 4]))]
    if kind == 5:
        return items
    if kind == 6:
        return tuple(items)
    return {rng.choice(JSON_STRINGS) + str(rng.randint(0, 9)): item for item in items}


def test_json_writer_matches_json_dumps_on_seeded_payloads():
    rng = random.Random(2024)
    texts = []
    for _ in range(300):
        payload = {"schema": 1, "result": random_json(rng)}
        text, writes = written_json(payload)
        assert (text, writes) == (dumps_oracle(payload), 1)
        texts.append(text)
    joined = "".join(texts)
    for piece in ("{}", "[]", "true", "false", "null", "\\u03b8", '\\"', "\\\\", "\\n", "\\u0001"):
        assert piece in joined, piece
    assert any(len(line.strip(" -,")) == 30 and line.strip(" -,").isdigit() for line in joined.splitlines())


class Int(int):
    pass


class Str(str):
    pass


class Dict(dict):
    pass


class List(list):
    pass


@pytest.mark.parametrize(
    "payload",
    [
        {"a": 1.5}, {"a": [2.0]}, {"a": Fraction(1, 2)}, {"a": (1, Fraction(3))}, {1: "a"}, {"a": {None: 0}},
        {"a": Int(3)}, {"a": [Str("b")]}, {Str("a"): 1}, {"a": Dict(b=1)}, {"a": List([1])},
    ],
    ids=[
        "float", "float_in_list", "fraction", "fraction_in_tuple", "int_key", "none_key",
        "int_subclass", "str_subclass", "str_subclass_key", "dict_subclass", "list_subclass",
    ],
)
def test_json_writer_rejects_floats_fractions_and_non_str_keys(payload):
    """Values dispatch on their exact type, so subclasses of the accepted
    types raise too (json.dumps would write them)."""
    with pytest.raises(TypeError):
        written_json(payload)


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._shared_parser.cache_clear()
    try:
        assert main(["bv", "z^5*t1"]) == 0
        assert main(["wedge", "t2", "t1", "--rank", "2"]) == 0
    finally:
        cli._shared_parser.cache_clear()
    assert built == [1]
    assert capsys.readouterr().out == "5*z1^5\n-t1*t2\n"
    # the public builder still gives a new parser on every call
    assert real() is not real()


@pytest.mark.parametrize("json_mode", [False, True])
def test_polyvector_commands_render_only_the_requested_form(json_mode, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "format_polyvector", lambda pv: calls.append("text") or "x")
    monkeypatch.setattr(PolyVector, "to_json", lambda pv: calls.append("json") or [])
    flags = ["--json"] if json_mode else []
    for argv in (["bracket", "z1*t1", "t1"], ["wedge", "t1", "z1"], ["bv", "z1*t1"]):
        assert main(argv + flags) == 0
    assert calls == ["json" if json_mode else "text"] * 3
    capsys.readouterr()


def test_polyvector_commands_call_the_kernel_bound_at_call_time(monkeypatch, capsys):
    # the benchmark's tracer counts kernel calls by rebinding these globals
    calls = []

    def spy(name, kernel):
        def counted(*operands):
            calls.append(name)
            return kernel(*operands)
        return counted

    for name in ("gerstenhaber_bracket", "wedge", "bv_delta"):
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    for argv in (["bracket", "z1*t1", "t1"], ["wedge", "t1", "z1"], ["bv", "z1*t1"]):
        assert main(argv) == 0
    assert calls == ["gerstenhaber_bracket", "wedge", "bv_delta"]
    assert capsys.readouterr().out == "-z1^1*t1\nz1^1*t1\nz1^1\n"


# (argv, ParseError position): bad coefficients and polyvectors exit 2
BAD_INPUT = [
    (["cocycle-check", "alpha=1/0"], 6),
    (["cocycle-check", "beta=[1/0]"], 6),
    (["cocycle-check", "alpha=-1/2,beta=[x],g=0"], 17),
    (["cocycle-check", "alpha=0,g=z1*q"], 13),
    (["rep", "--alpha=1/0", "--beta=0"], 0),
    (["rep", "--alpha=0", "--beta=1/0"], 0),
    (["bracket", "z1*t1", "t1 + q"], 5),
    (["cocycle-check", "alpha=1,alpha=2"], 8),
    (["cocycle-check", "beta=[1,,0]", "--rank", "2"], 5),
    (["cocycle-check", "beta=[1,,0]", "--rank", "3"], 8),
    (["cocycle-check", "beta=[1, ,0]", "--rank", "3"], 9),
    (["cocycle-check", "beta=[1],g=z,beta=[2]"], 13),
    (["cocycle-check", "beta=[[1]]"], 5),
    (["cocycle-check", "beta=]1["], 5),
    (["cocycle-check", "beta=1"], 5),
    (["cocycle-check", "beta=[1"], 5),
    (["cocycle-check", "alpha=1,beta=[2]]"], 13),
    # a coefficient is spelled as in a polyvector: no decimals, exponents or `_`
    (["rep", "--alpha=-0.5", "--beta=0"], 0),
    (["rep", "--alpha=0", "--beta=1_000"], 0),
    (["cocycle-check", "alpha=1e2"], 6),
    (["cocycle-check", "beta=[1, 0.5]", "--rank", "2"], 9),
    # digits are ASCII 0-9: Arabic-Indic and fullwidth digits are not numbers
    (["bv", "2*z*t\u0661"], 4),
    (["rep", "--alpha=\u0661/\u0662", "--beta=0"], 0),
    (["cocycle-check", "alpha=\uff13"], 6),
    (["bracket", "t1", "z^(1,\u0662)*t1", "--rank", "2"], 0),
    # a `g` that keeps a theta factor points at the first term that has one
    (["cocycle-check", "alpha=1,g=z+z*t1"], 11),
    # a field with no `=`, and an unknown key, point at the field's start
    (["cocycle-check", "alpha=1,beta"], 8),
    (["cocycle-check", "alpha=1,gamma=2"], 8),
    # a '(' inside [...] does not make its comma split fields
    (["cocycle-check", "beta=[1,(2]", "--rank", "2"], 8),
    # a stray closer stays in its field, and the value's reader points at it
    (["cocycle-check", "alpha=1,g=z)"], 11),
    (["cocycle-check", "alpha=1,g=z]"], 10),
]


@pytest.mark.parametrize("argv,position", BAD_INPUT)
def test_bad_input_is_one_line_and_exit_2(argv, position, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"torusbv {argv[0]}: error: ")
    assert captured.err.endswith(f"(at position {position})\n")

    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["schema"] == 1
    assert payload["error"]["type"] == "ParseError"
    assert payload["error"]["position"] == position
    assert "position" not in payload["error"]["message"]
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [["cocycle-check", "alpha=1/0"], ["cocycle-check", "beta=[1/0]"], ["rep", "--alpha=1/0", "--beta=0"]]
)
def test_bad_coefficient_gives_no_traceback(argv):
    code, out, err = run_cli_full(argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and "zero denominator in '1/0'" in err


def test_rank_mismatch_and_value_errors_exit_2(monkeypatch, capsys):
    def mismatched(a, b):
        raise RankMismatchError("rank 1 vs 2")

    monkeypatch.setattr(cli, "gerstenhaber_bracket", mismatched)
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "t1", "t1", "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"] == {
        "type": "RankMismatchError",
        "message": "rank 1 vs 2",
        "position": None,
    }
    assert captured.err == "torusbv bracket: error: rank 1 vs 2\n"

    with pytest.raises(SystemExit) as exc:
        main(["roots", "--rank", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "torusbv roots: error: rank must be >= 1, got 0\n"


def test_failed_check_still_exits_1(monkeypatch, capsys):
    def failing(seed=0):
        return {"suite": "bv-axioms", "params": {}, "checks": [{"name": "c", "ok": False}], "passed": False}

    monkeypatch.setitem(SUITES, "bv-axioms", failing)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bv-axioms"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out.endswith("FAILURES PRESENT\n") and captured.err == ""


# (argv, message): a zero rank or suite size would check nothing and pass
VACUOUS = [
    (["cocycle-check", "alpha=1", "--rank", "0"], "rank must be >= 1, got 0"),
    (["verify", "bv-axioms", "--cases", "-1"], "cases must be >= 1, got -1"),
    (["verify", "bv-axioms", "--cases", "0"], "cases must be >= 1, got 0"),
    (["verify", "rep-classification", "--grid", "-2"], "grid must be >= 1, got -2"),
    (["verify", "rep-classification", "--grid", "0"], "grid must be >= 1, got 0"),
    (["verify", "floer", "--max-n", "0"], "max_n must be >= 1, got 0"),
    (["verify", "rep-action", "--cases", "0"], "cases must be >= 1, got 0"),
    (["verify", "bv-axioms", "--window", "0"], "window must be >= 1, got 0"),
    (["verify", "bv-axioms", "--window", "-1"], "window must be >= 1, got -1"),
    (["verify", "cocycles", "--window", "0"], "window must be >= 1, got 0"),
    (["cocycle-check", "alpha=5", "--window", "0"], "window must be >= 1, got 0"),
    (["floer", "--n", "0"], "n must be >= 1, got 0"),
    (["floer", "--n", "-1"], "n must be >= 1, got -1"),
    (["bracket", "t1", "t1", "--rank", "0"], "rank must be >= 1, got 0"),
    (["wedge", "2", "3", "--rank", "0"], "rank must be >= 1, got 0"),
    (["bv", "z", "--rank", "0"], "rank must be >= 1, got 0"),
    (["bv", "z", "--rank", "-2"], "rank must be >= 1, got -2"),
    # the rank is checked before the spec is read
    (["cocycle-check", "beta=[1]", "--rank", "0"], "rank must be >= 1, got 0"),
]


@pytest.mark.parametrize("argv,message", VACUOUS)
def test_vacuous_rank_or_size_exits_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"torusbv {argv[0]}: error: {message}\n")

    with pytest.raises(SystemExit) as exc:
        main(argv + ["--json"])
    assert exc.value.code == 2
    error = {"type": "ValueError", "message": message, "position": None}
    assert json.loads(capsys.readouterr().out) == {"schema": 1, "error": error}


def test_operand_starting_with_minus_needs_double_dash(capsys):
    """argparse reads `-z^5*t1` as an unknown option; the documented
    workaround is `--`, and there is no argv pre-pass."""
    with pytest.raises(SystemExit) as exc:
        main(["bv", "-z^5*t1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert main(["bv", "--", "-z^5*t1"]) == 0
    assert capsys.readouterr().out == "-5*z1^5\n"


def test_library_rejects_vacuous_rank_and_triples():
    with pytest.raises(ValueError, match="rank must be >= 1"):
        CE1Cochain(0, alpha=1)
    # the rank is checked before the text is read, so it is not a ParseError
    for text in ("z", "t1", "0", "q3"):
        with pytest.raises(ValueError, match=r"^rank must be >= 1, got 0$") as exc:
            parse_polyvector(text, 0)
        assert not isinstance(exc.value, ParseError)
    # the shift suite runs five triples; there is no count to make vacuous
    with pytest.raises(TypeError, match="triples"):
        suites.shift_suite(triples=0)


@pytest.mark.parametrize("cases,brackets", [(1, 12), (2, 14), (3, 16)])
def test_bv_axioms_small_case_counts_run_every_loop(cases, brackets, monkeypatch, capsys):
    """Antisymmetry brackets 2 pairs per case; Jacobi and Poisson 9 times per
    triple and H1-homogeneity once per pair, each loop at least once."""
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return gerstenhaber_bracket(a, b)

    monkeypatch.setattr(suites, "gerstenhaber_bracket", counting)
    assert main(["verify", "bv-axioms", "--cases", str(cases)]) == 0
    assert len(calls) == brackets
    assert capsys.readouterr().out.endswith("all passed\n")


# each command with the arguments it needs; none of them reads --seed, and
# rep and floer report rank 1 whatever is asked
COMMANDS_WITHOUT_SEED = {
    "bracket": ["bracket", "t1", "t1"],
    "wedge": ["wedge", "t1", "t1"],
    "bv": ["bv", "t1"],
    "roots": ["roots"],
    "cocycle-check": ["cocycle-check", "alpha=1", "--window", "1"],
    "rep": ["rep", "--alpha=-1", "--beta=0"],
    "floer": ["floer", "--n", "3"],
}
REMOVED_FLAGS = [(name, "--seed", "5") for name in COMMANDS_WITHOUT_SEED] + [
    ("rep", "--rank", "7"),
    ("floer", "--rank", "0"),
]


@pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS)
def test_flag_the_command_does_not_read_is_rejected(command, flag, value, capsys):
    argv = COMMANDS_WITHOUT_SEED[command]
    assert main(argv) == 0
    capsys.readouterr()
    for extra in ([], ["--json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + extra + [flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unrecognized arguments: {flag} {value}" in captured.err


def full_parser_route(argv):
    """The oracle of `main`'s dispatch: the full parser reads every argv,
    then the command runs, with `main`'s exit statuses."""
    args = cli.build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValueError as err:
        cli._report_error(args, err)
        raise SystemExit(2) from None
    return 0


def outcome(route, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = route(list(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


# help and usage errors, a word before the command or after its own, and
# where a command's parser stops: `--` before operands, repeated `--`,
# options after operands
DISPATCH_EDGES = [
    [], ["-h"], ["--help"], ["--he"], ["bracket", "-h"], ["bracket", "--he"], ["verify", "-h"],
    ["frobnicate"], ["frobnicate", "t1"], ["bra", "t1", "t1"],
    ["--rank", "2", "bracket", "t1", "t1"], ["--rank=2"], ["--ra", "2"], ["--json", "bv", "t1"],
    ["--", "bv", "t1"], ["bracket", "t1"], ["bracket", "t1", "t1", "t1"], ["bracket"], ["roots", "extra"],
    ["bv", "-z^5*t1"], ["bv", "--", "-z^5*t1"], ["bv", "--", "--", "t1"], ["bracket", "--", "t1", "--", "t1"],
    ["bracket", "t1", "--", "t1"], ["wedge", "t1", "z1", "--ran", "2"], ["wedge", "t1", "z1", "--rank"],
    ["bv", "t1", "--rank", "x"], ["bv", "t1", "--json", "--json"], ["bv", "t1", "--json=1"],
    ["bracket", "t1", "t1", "-x"],
    ["verify"], ["verify", "nosuch"], ["verify", "floer", "--max-n", "x"], ["verify", "floer", "--rank", "2"],
    ["verify", "floer", "--max-n", "2", "extra"], ["floer"], ["floer", "--n", "3", "--n", "4"],
    ["rep", "--alpha=-1"], ["rep", "--alpha", "-1", "--beta", "0"], ["cocycle-check", "alpha=1", "--window"],
]
DISPATCH_CORPUS = (
    [shlex.split(command) for command in GOLDEN_COMMANDS]
    + [argv + json_flag for argv, _ in BAD_INPUT + VACUOUS for json_flag in ([], ["--json"])]
    + [COMMANDS_WITHOUT_SEED[command] + [flag, value] for command, flag, value in REMOVED_FLAGS]
    + DISPATCH_EDGES
)


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=shlex.join)
def test_main_matches_the_full_parser_route(argv):
    """Stdout, stderr and exit status of `main` are those of the full
    parser's route on every golden command, every bad, vacuous and removed
    flag argv, and the help, usage-error and `--` argvs."""
    assert outcome(main, argv) == outcome(full_parser_route, argv)


def test_a_call_its_command_reads_whole_skips_the_full_parser(monkeypatch, capsys):
    class FullParserReached(Exception):
        pass

    def reached(*args, **kwargs):
        raise FullParserReached

    # the command's parser runs parse_known_args, the full parser parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", reached)
    # argv may be any iterable of words, as parse_args takes
    for argv in (["bracket", "z1*t1", "t1"], ["wedge", "t1", "z1", "--json"], ["bv", "--", "-z^5*t1"],
                 ["verify", "floer", "--max-n", "2"], iter(["floer", "--n", "3"])):
        assert main(argv) == 0
    capsys.readouterr()
    # a word the command does not read goes to the full parser, whose
    # `unrecognized arguments` error argparse writes
    with pytest.raises(FullParserReached):
        main(["bracket", "t1", "t1", "--seed", "5"])
