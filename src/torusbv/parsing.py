"""Text grammar for Laurent polynomials and polyvector fields.

Machine form uses ASCII `t` for the odd generators, e.g. `3/2*z1^-2*z2^3*t1`
or the tuple-exponent shorthand `z^(1,-2)*t1`.  Terms are `+`/`-` separated.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .bvalgebra import PolyVector
from .laurent import LaurentPoly, SparseStore, _as_coefficient, _check_size


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# Every factor spelling in one alternation, so a factor is matched once.  No
# two alternatives match the same text, and the last group that took part
# (`lastgroup`) names the kind; a bare `z` takes part in none.
_FACTOR = re.compile(
    r"(?P<num>[+-]?\d+)(?:/(?P<den>\d+))?"  # 3, -1/2
    r"|z\^\((?P<tuple>-?\d+(?:,-?\d+)*)\)"  # z^(1,-2)
    r"|z(?P<var>\d+)(?:\^(?P<var_power>-?\d+))?"  # z2, z2^-3
    r"|z(?:\^(?P<power>-?\d+))?"  # z, z^-3 (rank 1 only)
    r"|[tθ](?P<theta>\d+)"  # t1, θ1
)


def parse_coefficient(text: str, position: int = 0) -> int | Fraction:
    """The coefficient that `text` spells as in a polyvector (`-3/2`, `4`),
    an int when it is integral, or a ParseError at `position`, the index of
    `text` in the input it was taken from.  Decimals, exponents and `_`
    digit separators are rejected, as they are in a polyvector."""
    m = _FACTOR.fullmatch(text.strip())
    if not m or m.lastgroup not in ("num", "den"):
        raise ParseError(f"not a rational number: {text!r}", position)
    den = int(m["den"] or 1)
    if not den:
        raise ParseError(f"zero denominator in {text!r}", position)
    return _as_coefficient(Fraction(int(m["num"]), den))


def _split_terms(text: str):
    """Split on top-level +/- (not inside parentheses), keeping signs; a
    run of signs such as `- -` stays with the term that follows it."""
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
            # exponent minus signs always follow '^' or ',' or '('
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


def _factor_position(raw: str, offset: int, factor: str) -> int:
    """Position of the first '*'-separated factor of the term `raw`, which
    starts at `offset`, that reads `factor` once stripped (and, for the
    first factor, once its signs are dropped).  Only called on errors, so
    the parse itself never tracks positions."""
    pos = offset
    for n, piece in enumerate(raw.split("*")):
        i = 0
        while i < len(piece) and (piece[i].isspace() or (n == 0 and piece[i] in "+-")):
            i += 1
        if piece[i:].strip() == factor:
            return pos + i
        pos += len(piece) + 1
    return offset


def _parse_term(raw: str, offset: int, rank: int):
    """Parse one product of factors; returns (coeff, exp tuple, wedge tuple).
    Numbers are multiplied as integer numerators and denominators, so the
    term builds at most one Fraction."""
    term = raw.strip()
    num = den = 1
    while term and term[0] in "+-":
        if term[0] == "-":
            num = -num
        term = term[1:].lstrip()
    if not term:
        raise ParseError("empty term", offset)
    exp = [0] * rank
    wedge = []
    for factor in term.split("*"):
        factor = factor.strip()
        m = _FACTOR.fullmatch(factor)
        kind = m and m.lastgroup
        if kind in ("num", "den"):
            num *= int(m["num"])
            if kind == "den":
                d = int(m["den"])
                if not d:
                    at = _factor_position(raw, offset, factor)
                    raise ParseError(f"zero denominator in {factor!r}", at)
                den *= d
        elif kind == "tuple":
            values = [int(v) for v in m["tuple"].split(",")]
            if len(values) != rank:
                raise ParseError(
                    f"exponent tuple has {len(values)} entries, expected {rank}",
                    _factor_position(raw, offset, factor),
                )
            exp = [a + b for a, b in zip(exp, values)]
        elif kind in ("var", "var_power"):
            i = int(m["var"])
            if not 1 <= i <= rank:
                at = _factor_position(raw, offset, factor)
                raise ParseError(f"variable z{i} out of range for rank {rank}", at)
            exp[i - 1] += int(m["var_power"] or 1)
        elif kind == "theta":
            i = int(m["theta"])
            if not 1 <= i <= rank:
                at = _factor_position(raw, offset, factor)
                raise ParseError(f"generator t{i} out of range for rank {rank}", at)
            wedge.append(i)
        elif m and rank == 1:  # `z` or `z^e`
            exp[0] += int(m["power"] or 1)
        else:
            message = f"unrecognized factor {factor!r}" if factor else "empty factor"
            raise ParseError(message, _factor_position(raw, offset, factor))
    return _as_coefficient(num if den == 1 else Fraction(num, den)), tuple(exp), tuple(wedge)


def parse_polyvector(text: str, rank: int) -> PolyVector:
    """Parse `text`; a ParseError's position is an index into `text`.  A
    rank below 1 raises ValueError before the text is read.

    Coefficients are summed under the raw (exponent, wedge) keys of the
    terms, and one validating PolyVector sorts the wedges (with their
    Koszul signs), drops repeated generators and cancels to zero."""
    _check_size("rank", rank)
    if text.strip() == "0":
        return PolyVector.zero(rank)
    terms = {}
    for term, offset in _split_terms(text):
        coeff, exp, wedge = _parse_term(term, offset, rank)
        key = (exp, wedge)
        old = terms.get(key)
        terms[key] = coeff if old is None else old + coeff
    return PolyVector(rank, terms)


def parse_laurent(text: str, rank: int) -> LaurentPoly:
    pv = parse_polyvector(text, rank)
    return pv.degree0_to_laurent()


def format_polyvector(pv: SparseStore) -> str:
    """Canonical machine form (round-trips through parse_polyvector).  A
    LaurentPoly prints as the degree-0 polyvector with the same terms."""
    if pv.is_zero():
        return "0"
    parts = []
    for key, c in sorted(pv.terms.items()):
        exp, wedge = pv._exp_wedge(key)
        factors = [f"z{i + 1}^{e}" for i, e in enumerate(exp) if e != 0]
        factors.extend(f"t{i}" for i in wedge)
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    out = parts[0]
    for part in parts[1:]:
        out += part if part.startswith("-") else "+" + part
    return out
