import functools
import json
import random
import subprocess
import sys

import pytest

from torusbv.cli import SUITES, main
from torusbv.parsing import ParseError, format_polyvector, parse_laurent, parse_polyvector
from torusbv.suites import random_polyvector


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "torusbv.cli", *args],
        capture_output=True,
        text=False,
    )
    return proc.returncode, proc.stdout


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


def test_cli_cocycle_check_pass_and_fail_status():
    code, out = run_cli(["cocycle-check", "alpha=-1/2,beta=[-1/2],g=0", "--window", "3"])
    assert code == 0
    assert "is_cocycle: True" in out.decode()


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


def test_verify_json_envelope_rank(capsys):
    assert main(["verify", "floer", "--max-n", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] is None
    assert main(["verify", "embedding", "--rank", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 1
    assert all(c["name"].startswith("rank1_") for c in payload["result"]["checks"])
