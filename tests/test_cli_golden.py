"""Byte-identical CLI output.

Each README example (each `torusbv` line of the README's `sh` blocks, read
from the README itself), each `verify` suite at its default seed, each
mixed-degree `bracket`/`wedge`/`bv` command, the rank-2 `cocycle-check`,
the rank-2 `verify cocycles` and the `LIE_EMBEDDING` commands below, in
text and `--json`, each
`rep`/`floer` command of `SL2_MODULES` and each `ERROR_ENVELOPES` command
has a pinned exit code and sha256 of stdout.  The README and suite pins were taken before `main` began to
reuse one argument parser, the mixed-degree pins before the bracket became
one bilinear Delta formula over all degree parts; they still hold for the
one-pass Schouten-Nijenhuis kernel.  The `verify bv-axioms` pins were
re-taken when that suite gained its `bracket_equals_bv_derived` line.
`verify witt-closed-form` is left out because it takes about 2.5 s; the
acceptance test for criterion 2 runs the same closed forms.
A deliberate change to one of these outputs must update its pin here.
"""

import contextlib
import hashlib
import io
import shlex
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from torusbv.cli import SUITES, VERIFY_FLAGS, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_commands():
    """(command after `torusbv`, the X of its `# -> X` comment or None) for
    each `torusbv ...` line of the README's `sh` blocks."""
    found = []
    in_sh = False
    for line in README.splitlines():
        if line.startswith("```"):
            in_sh = not in_sh and line == "```sh"
        elif in_sh and line.startswith("torusbv "):
            command, _, comment = line[len("torusbv "):].partition("#")
            comment = comment.strip()
            found.append((command.strip(), comment[2:].strip() if comment.startswith("->") else None))
    return found


# the README's examples, each once: its `--json` is added below
README_EXAMPLES = [command.removesuffix(" --json") for command, _ in readme_commands()]
SUITE_RUNS = [f"verify {name}" for name in SUITES if name != "witt-closed-form"]
# (command and options, operands): multi-term operands mixing cohomological
# degrees, one with parts that cancel; operands follow `--`, since one
# starts with '-'
MIXED_DEGREE = [
    ("bracket --rank 1", '"z^2+3*z^-1*t1" "1/2*z^3-z^1*t1"'),
    ("bracket --rank 2", '"-z1^1*z2^-1*t1+2*t1*t2+z2^3" "z1^-2*t2-1/3*z1^1*z2^1*t1*t2+5"'),
    ("bracket --rank 2", '"z1^1*t1+z1^1*t2-z1^1*t2+z2^2-z2^2+1/2*z1^-1*t1*t2" "z2^1*t1-z1^-1+z1^2*z2^-1*t1*t2"'),
    ("bracket --rank 3", '"z1^1*t1*t3+z2^-1*z3^2*t2-z1^-1+3/4*z3^1*t1*t2*t3" "z1^2*z2^1*t3+2*z2^-2*t1*t2-1/2*z3^-1"'),
    ("bracket --rank 4", '"-3*z1^1*z4^-2*t2*t4+z2^1*t1-z3^-1*z4^1+t1*t2*t3*t4" "2/3*z1^-1*z3^2*t3+z2^2*z4^1*t1*t2*t4-7"'),
    ("wedge --rank 3", '"-2*z1^1*t1+z2^-1*t2*t3+1/2" "z3^1*t1+z1^-1*z2^1-t2"'),
    ("bv --rank 4", '"-z1^2*z2^-1*t1*t2+3*z3^1*z4^-1*t3*t4*t1+z4^2*t4-5*z1^1"'),
]
# a rank-2 spec with every part nonzero, pinned before the cochain and the
# module action were computed in closed form
COCYCLE_CHECKS = ['cocycle-check "alpha=1/3,beta=[2,-1],g=z1^2*z2^-1-3*z2" --rank 2 --window 2']
# the cocycle suite at rank 2, pinned while its Delta identity line still
# walked the ordered basis pairs itself
COCYCLE_SUITE = ["verify cocycles --rank 2 --window 1"]
# sl2 modules beyond the README sizes, pinned before the density and Floer
# models shared one weight-chain module type: an 8-dimensional submodule
# with a negative lowest exponent, a point with no submodule, and V(8);
# V(12) and the Floer suite up to it were pinned while the chain entries
# were still stored as Fractions
SL2_MODULES = [
    "rep --alpha=-7/2 --beta=5/2",
    "rep --alpha=-7/2 --beta=5/2 --json",
    "rep --alpha=1/2 --beta=0 --json",
    "floer --n 8 --json",
    "floer --n 12",
    "floer --n 12 --json",
    "verify floer --max-n 12 --json",
]
# the sl_{r+1} layer at ranks beside the README's, pinned before its
# gl_{r+1} elements were stored as sparse entries
LIE_EMBEDDING = ["roots --rank 1", "roots --rank 3", "verify embedding --rank 4"]
# JSON error envelopes (exit 2), one with an integer position and one with
# `"position": null`, pinned before the CLI wrote JSON without `json.dumps`,
# and the ParseError of a cocycle `g` that keeps a theta factor, which was a
# ValueError with `"position": null` before `parse_laurent` gave its term
ERROR_ENVELOPES = [
    "rep --alpha=1/0 --beta=0 --json",
    "verify rep-action --rank 2 --json",
    'cocycle-check "alpha=1,g=z+z*t1" --json',
]
COMMANDS = [
    c + mode
    for c in README_EXAMPLES + SUITE_RUNS + COCYCLE_CHECKS + COCYCLE_SUITE + LIE_EMBEDDING
    for mode in ("", " --json")
] + [
    f"{head}{mode} -- {operands}" for head, operands in MIXED_DEGREE for mode in ("", " --json")
] + SL2_MODULES + ERROR_ENVELOPES

# command line after `torusbv` -> (exit code, sha256 of stdout)
PINS = {
    'bracket "z^1*t1" "z^-1*t1" --rank 1': (0, '8ab52bf54d510d06d1b803cd389dcbcf1b556764b5cf1acba756bf090afe0d3b'),
    'bracket "z^1*t1" "z^-1*t1" --rank 1 --json': (0, '4e84328516a2f755bef2e068f79265fae3d37001598c610377410fd5796f3899'),
    'bv "z^5*t1"': (0, '609dfd4f7f0c5ae9bf2493c0f96b5bf00b91271c8c2a87794f72cf4c2f5d6a7f'),
    'bv "z^5*t1" --json': (0, '72775aa485026313337243d2cdbb3dde0d1ddb8ffeffbda904735a1c0fad1131'),
    'wedge "t2" "t1" --rank 2': (0, '14233887529dadd3146ff5555ce7d099179384e26c4ee56a207aa2042d43d53d'),
    'wedge "t2" "t1" --rank 2 --json': (0, '1ef00b47334f7f42a6ecc0f042c5e536eec7e5dee740efbfb2b2b4ae236040ab'),
    'roots --rank 2': (0, '052f5e8db77cc5b69b9b9092b0bcdbf202d8db610a905fd9f35fdbe1d075aa02'),
    'roots --rank 2 --json': (0, 'd17cd9c634fcae5bb0be569f4ba559333bd6439d10e4043deb57d789101c57bb'),
    'cocycle-check "alpha=-1/2,beta=[-1/2],g=0" --window 4': (0, 'cb2aa1f9171f3a2abdbc25d44c11a036b0d683d090d4e724b25b5da6afac91b9'),
    'cocycle-check "alpha=-1/2,beta=[-1/2],g=0" --window 4 --json': (0, 'b2a389e553fb1a4a353381d6fcbab2fa65964eea91549b025ad54a2db2235cc1'),
    'rep --alpha=-3/2 --beta=-3/2 --extract': (0, 'e2f4b74398c28810e93d1936c7c37d36271178d1fc11e8a537a5f682682cb731'),
    'rep --alpha=-3/2 --beta=-3/2 --extract --json': (0, 'ad903f3fbcd760bc3f9c812a71c4f9311d515b4fc03c043548376c0df0796e04'),
    'floer --n 3': (0, 'b322491b1986695de0bd031b28e6e48d972ca7b1381bc78347348bcafcbf2ed6'),
    'floer --n 3 --json': (0, '1342324712f0c5127b3ff8ecfe46aad66191e8f432976c751fa26288b03cd64b'),
    'verify bv-axioms --seed 7 --cases 200': (0, '687117b4302f1e888cc7566406e808ed2ed21288cf61bb0e707b7f789fc53768'),
    'verify bv-axioms --seed 7 --cases 200 --json': (0, '836cc6c29663ce8ffa4464296c7d0716c051bcd1c3989218a241d7002592e398'),
    'verify rep-classification --grid 8': (0, '7d89bed202db57572e51315f6b75893190c6db90d16a67e4b361c2efd7fe0f52'),
    'verify rep-classification --grid 8 --json': (0, 'b5284dd8dd2e7b39481bb3513fb53f11cc97fd3512c436577c7c8dbd65ce69f3'),
    'verify floer --max-n 6': (0, '5216de7cab0aa19e1ab4d49a42e8abae493e9c28d07003a6be8c384304e793f2'),
    'verify floer --max-n 6 --json': (0, 'fb3311c291b309fc71a502514448601253e0744a1b5b9d4a11da72d1f744fc7a'),
    'verify bv-axioms': (0, '687117b4302f1e888cc7566406e808ed2ed21288cf61bb0e707b7f789fc53768'),
    'verify bv-axioms --json': (0, 'b78f19ea8d77085ef34276690ceffc293af62457648c26f5f9a10b277d7dabd0'),
    'verify embedding': (0, '93eff3dc3e8731c7ee6c53fd1ba9cbe8cdb117ca83f9668f39008dfc0e2d037d'),
    'verify embedding --json': (0, '2243f49c968b73b16b503859a589d6226091bcee3786c99b3571902433fd6f35'),
    'verify cocycles': (0, '36d1518e9ab2cf46df81b43c557dafe4c10cad355e0ac9cf2d1181c4d14afab8'),
    'verify cocycles --json': (0, '85323b414f936ddb70ed8aad3658f4867b80c2bdb587c944842197f8e1aac5b9'),
    'verify rep-classification': (0, '7d89bed202db57572e51315f6b75893190c6db90d16a67e4b361c2efd7fe0f52'),
    'verify rep-classification --json': (0, 'b5284dd8dd2e7b39481bb3513fb53f11cc97fd3512c436577c7c8dbd65ce69f3'),
    'verify rep-action': (0, '3c36d7d81de9e7f0d740abac0f8a2214b490663fe3ce0199eee0bc7bc7d16e33'),
    'verify rep-action --json': (0, '61e576ed9fa3ea3e97675f37f39111d6a6e165a298f27f5b6e82a32356231713'),
    'verify shift-isomorphism': (0, '37cb4cf7ef689a0cc310fc3de68eee09b64123f607c57c6776f5129aaf639394'),
    'verify shift-isomorphism --json': (0, 'd5e27131ad40c49541a07ed2f1f26a05c0f1e4fc0d9498ca38db00b169a93880'),
    'verify floer': (0, '5216de7cab0aa19e1ab4d49a42e8abae493e9c28d07003a6be8c384304e793f2'),
    'verify floer --json': (0, 'fb3311c291b309fc71a502514448601253e0744a1b5b9d4a11da72d1f744fc7a'),
    'cocycle-check "alpha=1/3,beta=[2,-1],g=z1^2*z2^-1-3*z2" --rank 2 --window 2': (0, 'cb2aa1f9171f3a2abdbc25d44c11a036b0d683d090d4e724b25b5da6afac91b9'),
    'cocycle-check "alpha=1/3,beta=[2,-1],g=z1^2*z2^-1-3*z2" --rank 2 --window 2 --json': (0, 'bd1b26e3f0bc7bb4cc261517b79371de08cbb446f14032a24d169a594baa7648'),
    'verify cocycles --rank 2 --window 1': (0, '5b65144aee6171c50a037512206a8084f92dccfb0aeebaadb3c7d4c044230146'),
    'verify cocycles --rank 2 --window 1 --json': (0, 'f1ffc42b903f85dc4e8e4365d1d956589ce9343a9c07c992fa6142af41afc4f7'),
    'bracket --rank 1 -- "z^2+3*z^-1*t1" "1/2*z^3-z^1*t1"': (0, 'cd5149dd493809180f9672149a1dad5e20b1fc2016ce259ddb6cf0b0a7d0b164'),
    'bracket --rank 1 --json -- "z^2+3*z^-1*t1" "1/2*z^3-z^1*t1"': (0, 'b6a200f05245f94301d2a69ab1c51431c8a09184e2966bd4298562dd3f94604a'),
    'bracket --rank 2 -- "-z1^1*z2^-1*t1+2*t1*t2+z2^3" "z1^-2*t2-1/3*z1^1*z2^1*t1*t2+5"': (0, '03621adff17b6d959b3f574042e8aa971b8f6c9bbaab512df8f92e837b0109bd'),
    'bracket --rank 2 --json -- "-z1^1*z2^-1*t1+2*t1*t2+z2^3" "z1^-2*t2-1/3*z1^1*z2^1*t1*t2+5"': (0, '3d67c69ffaf3bff0e448c41972007ccce3f158f0f21fcb76ed9cd157096fa044'),
    'bracket --rank 2 -- "z1^1*t1+z1^1*t2-z1^1*t2+z2^2-z2^2+1/2*z1^-1*t1*t2" "z2^1*t1-z1^-1+z1^2*z2^-1*t1*t2"': (0, '0800c57ae8836b58b4b8f79e2441e23f7b5f7c986dc24b04fe4038501fc7e729'),
    'bracket --rank 2 --json -- "z1^1*t1+z1^1*t2-z1^1*t2+z2^2-z2^2+1/2*z1^-1*t1*t2" "z2^1*t1-z1^-1+z1^2*z2^-1*t1*t2"': (0, 'a4b4395ccbccd6aec7b0323d0a314e134425a507c9d63c107b2399cb72740990'),
    'bracket --rank 3 -- "z1^1*t1*t3+z2^-1*z3^2*t2-z1^-1+3/4*z3^1*t1*t2*t3" "z1^2*z2^1*t3+2*z2^-2*t1*t2-1/2*z3^-1"': (0, 'd70a557f6c0413088170db2f9d18fabd12ed7df36d7ef86ca727cdac4de06d77'),
    'bracket --rank 3 --json -- "z1^1*t1*t3+z2^-1*z3^2*t2-z1^-1+3/4*z3^1*t1*t2*t3" "z1^2*z2^1*t3+2*z2^-2*t1*t2-1/2*z3^-1"': (0, '2d6bc7b6212023388f302b25f7fa1d3e9bafba19d04d70d35ee8be1960847b95'),
    'bracket --rank 4 -- "-3*z1^1*z4^-2*t2*t4+z2^1*t1-z3^-1*z4^1+t1*t2*t3*t4" "2/3*z1^-1*z3^2*t3+z2^2*z4^1*t1*t2*t4-7"': (0, '69a9de8764baf8dcbac95b9eba472611bf73b9bd3c456a374cc6fe3f180a6068'),
    'bracket --rank 4 --json -- "-3*z1^1*z4^-2*t2*t4+z2^1*t1-z3^-1*z4^1+t1*t2*t3*t4" "2/3*z1^-1*z3^2*t3+z2^2*z4^1*t1*t2*t4-7"': (0, 'bbfa4c8824da74d50dbf1e74a46cc441150eddad4d7475be72e9ace82d7222ed'),
    'wedge --rank 3 -- "-2*z1^1*t1+z2^-1*t2*t3+1/2" "z3^1*t1+z1^-1*z2^1-t2"': (0, '0b685d37685b6e64d54be5b9950ceeb4faf090752e9128edbcab30fda1963f97'),
    'wedge --rank 3 --json -- "-2*z1^1*t1+z2^-1*t2*t3+1/2" "z3^1*t1+z1^-1*z2^1-t2"': (0, '39763356fe8871a91d4f87e9f2263f2689b7e3f0691f1ba9222b6ab5dc684caa'),
    'bv --rank 4 -- "-z1^2*z2^-1*t1*t2+3*z3^1*z4^-1*t3*t4*t1+z4^2*t4-5*z1^1"': (0, '1c651f5eba0eef043a4b7cc4e4239f23f26346091ee19cfe9fdb905c649f107c'),
    'bv --rank 4 --json -- "-z1^2*z2^-1*t1*t2+3*z3^1*z4^-1*t3*t4*t1+z4^2*t4-5*z1^1"': (0, '03e58a11ec9dee718e01051da509bf469eee2c39e8ea301abfa912551d060092'),
    'rep --alpha=-7/2 --beta=5/2': (0, '3b88602203dff15403aa17293089b964a2162093f689bcfa8ea4f77080314cd4'),
    'rep --alpha=-7/2 --beta=5/2 --json': (0, '04027d2dafb7e140252e9e5812134584c3b5fb08804d7d0ce74c92c31bdcd311'),
    'rep --alpha=1/2 --beta=0 --json': (0, 'a4fb1dba353a055dbb93e8a8533143705110f5a1870318a10e5c06625f707c4f'),
    'floer --n 8 --json': (0, 'b8581a34498673c0f3de82af6875c8c55247c6f78ef7a368705daa0f9753b229'),
    'floer --n 12': (0, '04567e17c06a498cee36d53be4eda5ccfb2fd38b172c9751ce5a2b9da42df1ff'),
    'floer --n 12 --json': (0, '2c365798b034dcaf4c44435d653107384ed11f4aa36936c2d30846e8f93849b3'),
    'verify floer --max-n 12 --json': (0, '3aa248b58004e12fe33d806b6f1b28c3ff19bce1edd4639d6ed8f6acf1bf0dde'),
    'roots --rank 1': (0, '0ac9ae09cee5b724df12cf118e8a2245f617eb838b0867c7d3b9224106467ed8'),
    'roots --rank 1 --json': (0, 'f849f343e64f1bb31e05719e1010a0b59772847bd0381ca06238036cd1f93d35'),
    'roots --rank 3': (0, '76792f6fcfd6939cb5e5333defee81d9be7c9ca6fc033b48c0bb5a9d6c4f5ff7'),
    'roots --rank 3 --json': (0, '72cda333d5567a3c7c01af9a259f2c343769dcd856909ce882e2b4719dc6822d'),
    'verify embedding --rank 4': (0, 'e47fac42ffb326ad65bcadd3c6a5d9c5948328eeba0af5bbbf8dec8fbd2c92c9'),
    'verify embedding --rank 4 --json': (0, '526ea0510ed4c72d5e7d436bd7271682df67129111617da58e7470ad49a2a066'),
    'rep --alpha=1/0 --beta=0 --json': (2, '4353ebcecc178594a514a1b6717b07b1edf7006924d33095772eb4143fb5a780'),
    'verify rep-action --rank 2 --json': (2, 'e4e535b49981bd75d100be9bc9ad4b4e3d18cd165d819781c2e857f8bc4b9de8'),
    'cocycle-check "alpha=1,g=z+z*t1" --json': (2, '5a5d29d324b3617eb1f07876d89b6e787cf47d7db24fb4c0d54543363545664c'),
}

USAGE_ERROR = "bracket t1"  # missing operand: argparse exits 2
PARSE_ERROR = "bv z1*q"  # ParseError: exit 2, one line on stderr


def run_in_process(command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(command))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_subprocess(command):
    proc = subprocess.run(
        [sys.executable, "-m", "torusbv.cli", *shlex.split(command)],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_every_command_is_pinned():
    assert sorted(PINS) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_is_pinned(command):
    code, out, _ = run_in_process(command)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINS[command]


def test_repeated_main_calls_match_fresh_processes():
    """One process, one shared parser: the README examples run twice,
    between a usage error and a ParseError, each give what a fresh
    `torusbv` process gives (exit code, stdout and stderr)."""
    sequence = []
    for command in README_EXAMPLES:
        sequence += [command, USAGE_ERROR, command + " --json", PARSE_ERROR]
    distinct = list(dict.fromkeys(sequence))
    with ThreadPoolExecutor(max_workers=4) as pool:
        expected = dict(zip(distinct, pool.map(run_subprocess, distinct)))
    assert expected[USAGE_ERROR][0] == expected[PARSE_ERROR][0] == 2
    for command in sequence + sequence:
        assert run_in_process(command) == expected[command], command


def test_readme_output_comments_match_stdout():
    expected = [(command, out) for command, out in readme_commands() if out is not None]
    assert expected
    for command, out in expected:
        code, stdout, _ = run_in_process(command)
        assert (code, stdout) == (0, out + "\n"), command


def test_readme_lists_the_verify_suites_and_flags():
    suites = re.search(r"Available `verify` suites: (.*?)\.\s", README, re.S).group(1)
    assert re.findall(r"`([^`]+)`", suites) == list(SUITES)
    flags = re.search(r"passes each flag it is given \((.*?)\)", README, re.S).group(1)
    assert re.findall(r"`([^`]+)`", flags) == ["--" + flag.replace("_", "-") for flag in VERIFY_FLAGS]
