"""Text grammar for Laurent polynomials, polyvector fields and cocycle specs.

Machine form uses ASCII `t` for the odd generators, e.g. `3/2*z1^-2*z2^3*t1`
or the tuple-exponent shorthand `z^(1,-2)*t1`.  Terms are `+`/`-` separated,
and each is a `*`-separated product of factors, where:
- whitespace may surround factors, `*` and signs, but may not appear inside
  a factor (` - 2 * t1` reads; `z1 ^2` and `z^(1, 2)` do not);
- one sign may lead a number after `*` (`2*-3` is -6; `2*- 3`, `2*--3` and
  `t1*-t2` do not read);
- coefficients may stand anywhere in a term and multiply (`t1*2*3/4` is
  `3/2*t1`).
A polyvector text is read in one regex scan, one factor with its lead per
match; the term split and the per-factor checks run only on errors.
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


# A coefficient as the grammar spells it ('3', '-1/2', '+6/3'); `_FACTORS`
# starts with it.  Digits are written [0-9], since `\d` would take any
# Unicode digit and `re.ASCII` would narrow the scan's `\s`.
_RATIONAL = r"(?P<num>[+-]?[0-9]+)(?:/(?P<den>[0-9]+))?"
_RATIONAL_STRING = re.compile(_RATIONAL)

# Every factor spelling in one alternation, so a factor is matched once.  No
# two alternatives match the same text, and the last group that took part
# (`lastgroup`) names the kind.
_FACTORS = (
    _RATIONAL  # 3, -1/2
    + r"|z\^\((?P<tuple>-?[0-9]+(?:,-?[0-9]+)*)\)"  # z^(1,-2)
    r"|z(?P<var>[0-9]+)(?:\^(?P<var_power>-?[0-9]+))?"  # z2, z2^-3
    r"|(?P<z>z)(?:\^(?P<power>-?[0-9]+))?"  # z, z^-3 (rank 1 only)
    r"|[tθ](?P<theta>[0-9]+)"  # t1, θ1
)
_FACTOR = re.compile(_FACTORS)

# One factor with its lead per match: a `*` (never at the start of the
# text), or the run of signs that starts a term, or the start of the text;
# whitespace may stand around either, and the match takes the whitespace
# after its factor.  So a valid text is a gapless run of matches, and a
# sign-led number after `*` reads as one factor (`2*-3`).  Anything else is
# a one-character match with no group, where the scan stops.
_SCAN = re.compile(
    r"(?:(?!\A)(?P<star>\*)\s*|(?:\A\s*)?(?P<signs>[+-][\s+-]*)|\A\s*)"
    r"(?:" + _FACTORS + r")\s*|[\s\S]"
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
    run of signs such as `- -` stays with the term that follows it.  Only
    the error walk (`_raise_first_error`) splits a polyvector text."""
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


# the signs and whitespace before a term's first factor
_LEAD = re.compile(r"[\s+-]*")


def _check_term(raw: str, offset: int, rank: int) -> None:
    """Raise the ParseError of the first bad factor of the term `raw`, which
    starts at `offset`, in text order, at the factor's first character past
    its lead (the signs and whitespace before the first factor, the
    whitespace before a later one); a term of valid factors passes.  Only
    called on errors, so it reads no value."""
    skip = _LEAD.match(raw).end()
    if skip == len(raw):
        raise ParseError("empty term", offset)
    pos = offset
    for n, piece in enumerate(raw.split("*")):
        if n:
            skip = len(piece) - len(piece.lstrip())
        factor = piece[skip:].rstrip()
        m = _FACTOR.fullmatch(factor)
        kind = m and m.lastgroup
        if kind == "den" and not int(m["den"]):
            message = f"zero denominator in {factor!r}"
        elif kind == "tuple" and (entries := m["tuple"].count(",") + 1) != rank:
            message = f"exponent tuple has {entries} entries, expected {rank}"
        elif kind in ("var", "var_power") and not 1 <= (i := int(m["var"])) <= rank:
            message = f"variable z{i} out of range for rank {rank}"
        elif kind == "theta" and not 1 <= (i := int(m["theta"])) <= rank:
            message = f"generator {factor[0]}{i} out of range for rank {rank}"
        elif kind in ("z", "power") and rank != 1:
            message = f"bare z in {factor!r} needs rank 1 (write {'z1' + factor[1:]!r})"
        elif not m:
            message = f"unrecognized factor {factor!r}" if factor else "empty factor"
        else:
            pos += len(piece) + 1
            continue
        raise ParseError(message, pos + skip)


def _raise_first_error(text: str, rank: int):
    """Raise the ParseError of the first fault of `text`: an unbalanced
    parenthesis or an empty input (`_split_terms`), else the first bad
    factor in text order (`_check_term`).  Called when the scan stops; if
    the walk finds no fault, the error is at the scan's first unread
    character."""
    for raw, offset in _split_terms(text):
        _check_term(raw, offset, rank)
    at = next((m.start() for m in _SCAN.finditer(text) if m.lastindex is None), len(text))
    raise ParseError(f"unrecognized text {text[at:]!r}", at)


def _signed_terms(text: str, rank: int):
    """(canonical key, Koszul sign, coefficient) of each term of `text`, as
    `laurent._merge` takes them, read in one `_SCAN.findall`.  A match
    without a `*` starts a term; numbers are multiplied as integer
    numerators and denominators, so a term builds at most one Fraction.  A
    match with no factor, or a factor out of range, stops the scan, and
    `_raise_first_error` reports the fault."""
    exp = None
    for star, signs, num, den, tup, var, var_power, z, power, theta in _SCAN.findall(text):
        if not star:
            if exp is not None:
                wedge, sign = normalize_wedge(wedge)
                yield (tuple(exp), wedge), sign, n if d == 1 else _as_coefficient(Fraction(n, d))
            n = -1 if signs.count("-") & 1 else 1
            d = 1
            exp = [0] * rank
            wedge = []
        if var:
            i = int(var)
            if not 0 < i <= rank:
                break
            exp[i - 1] += int(var_power) if var_power else 1
        elif theta:
            i = int(theta)
            if not 0 < i <= rank:
                break
            wedge.append(i)
        elif num:
            n *= int(num)
            if den:
                d *= int(den)
                if not d:
                    break
        elif tup:
            values = tup.split(",")
            if len(values) != rank:
                break
            exp = [e + int(v) for e, v in zip(exp, values)]
        elif z and rank == 1:
            exp[0] += int(power) if power else 1
        else:
            break
    else:
        if exp is not None:
            wedge, sign = normalize_wedge(wedge)
            yield (tuple(exp), wedge), sign, n if d == 1 else _as_coefficient(Fraction(n, d))
            return
    _raise_first_error(text, rank)


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
    `θ` factor that survives the merge, found only on that error path from
    the scan's keys and its term starts (the matches without a `*`)."""
    pv = parse_polyvector(text, rank)
    try:
        return pv.degree0_to_laurent()
    except ValueError as exc:
        left = {key for key in pv.terms if key[1]}
        starts = (m.start() for m in _SCAN.finditer(text) if not m["star"])
        at = next(start for start, (key, _, _) in zip(starts, _signed_terms(text, rank)) if key in left)
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
