"""Text grammar for Laurent polynomials, polyvector fields and cocycle specs.

Machine form uses ASCII `t` for the odd generators, e.g. `3/2*z1^-2*z2^3*t1`
or the tuple-exponent shorthand `z^(1,-2)*t1`.  Terms are `+`/`-` separated.
A cocycle spec is comma-separated `key=value` fields, e.g.
`alpha=-1/2,beta=[-1/2,0],g=z^(1,-2)`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .bvalgebra import PolyVector, normalize_wedge
from .cocycle import CE1Cochain
from .laurent import LaurentPoly, SparseStore, _as_coefficient, _check_size, _merge


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# A coefficient as the grammar spells it ('3', '-1/2', '+6/3'); `_FACTOR` starts with it.
_RATIONAL = r"(?P<num>[+-]?\d+)(?:/(?P<den>\d+))?"
_RATIONAL_STRING = re.compile(_RATIONAL, re.ASCII)

# Every factor spelling in one alternation, so a factor is matched once.  No
# two alternatives match the same text, and the last group that took part
# (`lastgroup`) names the kind; a bare `z` takes part in none.
_FACTOR = re.compile(
    _RATIONAL  # 3, -1/2
    + r"|z\^\((?P<tuple>-?\d+(?:,-?\d+)*)\)"  # z^(1,-2)
    r"|z(?P<var>\d+)(?:\^(?P<var_power>-?\d+))?"  # z2, z2^-3
    r"|z(?:\^(?P<power>-?\d+))?"  # z, z^-3 (rank 1 only)
    r"|[tθ](?P<theta>\d+)",  # t1, θ1
    re.ASCII,  # digits are 0-9 only; the literal `θ` still matches
)


def parse_coefficient(text: str, position: int = 0) -> int | Fraction:
    """The coefficient that `text` spells as in a polyvector (`-3/2`, `4`,
    spaces around it allowed), an int when it is integral
    (`_as_coefficient`), or a ParseError at `position`, the index of `text`
    in the input it was taken from."""
    m = _RATIONAL_STRING.fullmatch(text.strip())
    if not m:
        raise ParseError(f"not a rational number: {text!r}", position)
    if m["den"] and not int(m["den"]):
        raise ParseError(f"zero denominator in {text!r}", position)
    return _as_coefficient(Fraction(int(m["num"]), int(m["den"] or 1)))


# the only characters at which the term split can change state
_SPLIT_MARK = re.compile(r"[()+-]")


def _split_terms(text: str):
    """Split on top-level +/- (not inside parentheses), keeping signs; a
    run of signs such as `- -` stays with the term that follows it."""
    terms = []
    depth = 0
    start = 0
    for m in _SPLIT_MARK.finditer(text):
        ch = m.group()
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", m.start())
        elif not depth:
            # exponent minus signs always follow '^' or ',' or '('; a sign
            # with nothing but spaces before it in its term starts no term
            pos = m.start()
            if text[start:pos].rstrip()[-1:] not in "^,*(+-":
                terms.append((text[start:pos], start))
                start = pos
    if depth:
        raise ParseError("unbalanced '('", len(text))
    if text[start:].strip():
        terms.append((text[start:], start))
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
                raise ParseError(f"generator {factor[0]}{i} out of range for rank {rank}", at)
            wedge.append(i)
        elif m:  # `z` or `z^e`, which name z1 only at rank 1
            if rank != 1:
                at = _factor_position(raw, offset, factor)
                raise ParseError(f"bare z in {factor!r} needs rank 1 (write {'z1' + factor[1:]!r})", at)
            exp[0] += int(m["power"] or 1)
        else:
            message = f"unrecognized factor {factor!r}" if factor else "empty factor"
            raise ParseError(message, _factor_position(raw, offset, factor))
    return _as_coefficient(num if den == 1 else Fraction(num, den)), tuple(exp), tuple(wedge)


def _signed_terms(text: str, rank: int):
    """(canonical key, Koszul sign, coefficient) of each term of `text`, as
    `laurent._merge` takes them; `_parse_term` has checked every key."""
    for term, offset in _split_terms(text):
        coeff, exp, wedge = _parse_term(term, offset, rank)
        wedge, sign = normalize_wedge(wedge)
        yield (exp, wedge), sign, coeff


def parse_polyvector(text: str, rank: int) -> PolyVector:
    """Parse `text`; a ParseError's position is an index into `text`.  A
    rank below 1 raises ValueError before the text is read.

    Each term's wedge is sorted with its Koszul sign as it is read, and the
    terms merge once, on canonical keys, in `laurent._merge`."""
    _check_size("rank", rank)
    return PolyVector._raw(rank, _merge(_signed_terms(text, rank)))


def parse_laurent(text: str, rank: int) -> LaurentPoly:
    """Parse `text` as a polyvector that must merge to degree 0 (`t1-t1`
    is 0).  Otherwise a ParseError points at the first term with a `t` or
    `θ` factor that survives the merge, found only on that error path."""
    pv = parse_polyvector(text, rank)
    try:
        return pv.degree0_to_laurent()
    except ValueError as exc:
        left = {key for key in pv.terms if key[1]}
        parsed = ((offset, _parse_term(term, offset, rank)) for term, offset in _split_terms(text))
        at = next(offset for offset, (_, exp, wedge) in parsed if (exp, tuple(sorted(wedge))) in left)
        raise ParseError(str(exc), at) from None


# the only characters at which the field split can change state
_FIELD_MARK = re.compile(r"[\[\](),]")


def _split_fields(spec: str):
    """Split a cocycle spec at the commas outside [...] and (...), with one
    depth count over both bracket kinds that never goes below 0, so a
    stray closer stays in its field for the value's own reader to report."""
    fields = []
    depth = 0
    start = 0
    for m in _FIELD_MARK.finditer(spec):
        ch = m.group()
        if ch in "[(":
            depth += 1
        elif ch != ",":
            depth = max(depth - 1, 0)
        elif not depth:
            fields.append(spec[start:m.start()])
            start = m.end()
    fields.append(spec[start:])
    return fields


def parse_cochain_spec(spec: str, rank: int) -> CE1Cochain:
    """Parse a CLI cocycle spec like `alpha=-1/2,beta=[-1/2,0],g=0`.  A rank
    below 1 raises ValueError before the text is read; malformed text
    raises ParseError at its index in `spec`."""
    _check_size("rank", rank)
    alpha = 0
    betas = [0] * rank
    exact = None
    seen = set()
    start = 0
    for field in _split_fields(spec):
        key, eq, raw = field.partition("=")
        value = raw.strip()
        at = start + len(key) + 1 + len(raw) - len(raw.lstrip())  # index of `value`
        if not eq:
            raise ParseError(f"bad cocycle spec field {field!r}", start)
        key = key.strip()
        if key in seen:
            raise ParseError(f"repeated cocycle spec key {key!r}", start)
        seen.add(key)
        if key == "alpha":
            alpha = parse_coefficient(value, at)
        elif key == "beta":
            inner = value[1:-1]
            if value[:1] != "[" or value[-1:] != "]" or "[" in inner or "]" in inner:
                raise ParseError(f"beta must be written [b1,...,br], got {value!r}", at)
            parts = inner.split(",")
            if len(parts) != rank:
                raise ParseError(f"expected {rank} beta entries, got {len(parts)}", at)
            at += 1
            betas = []
            for part in parts:
                betas.append(parse_coefficient(part.strip(), at + len(part) - len(part.lstrip())))
                at += len(part) + 1
        elif key == "g":
            try:
                exact = None if value == "0" else parse_laurent(value, rank)
            except ParseError as err:
                raise ParseError(err.message, at + err.position) from None
        else:
            raise ParseError(f"unknown cocycle spec key {key!r}", start)
        start += len(field) + 1
    return CE1Cochain(rank, alpha, betas, exact)


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
