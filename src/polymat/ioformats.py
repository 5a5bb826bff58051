"""Text and JSON formats for monomials, ideals, and variable orders.

Monomial text: `x<i>` or `x<i>^<e>` factors joined by `*`; the unit
monomial is spelled `1` (e.g. `x1^2*x3`).  Ideal text: generators joined
by ` + ` or given one per line; both forms and mixtures parse.  The JSON
form of an ideal is `{"n": 3, "gens": [[2, 0, 1], [1, 1, 1]]}`.  Every
JSON document the toolkit writes goes through dump_json, and every JSON
text through _dumps, which refuses an integer too long to render.

Parsers reject negative exponents and out-of-range variable indices with
errors that carry the offending line and column.
"""

from __future__ import annotations

import json
import re
import sys

from .core import Monomial, MonomialIdeal, VariableOrder, _instance, _integer_text, _integers
from .errors import BoundExceededError, InvalidArgumentError, ParseError, PolymatError
from .version import __version__

SCHEMA_VERSION = 1

_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?", re.ASCII)


def _parse_factors(token: str, offset: int, line: int) -> list[tuple[int, int]]:
    """Parse one monomial token into (1-based variable, exponent) pairs."""
    text = token.strip()
    start = offset + (len(token) - len(token.lstrip()))
    if not text:
        raise ParseError("empty monomial", start, line)
    if text == "1":
        return []
    pairs = []
    pos = start
    for piece in text.split("*"):
        factor = piece.strip()
        fpos = pos + (len(piece) - len(piece.lstrip()))
        match = _FACTOR_RE.fullmatch(factor)
        if match is None:
            if "-" in factor:
                raise ParseError(f"negative exponent in {factor!r}", fpos, line)
            raise ParseError(f"malformed factor {factor!r}", fpos, line)
        var = int(match.group(1))
        if var < 1:
            raise ParseError(f"variable index must be at least 1: {factor!r}", fpos, line)
        exp = int(match.group(2)) if match.group(2) is not None else 1
        pairs.append((var, exp))
        pos += len(piece) + 1
    return pairs


def _build_monomial(pairs: list[tuple[int, int]], n: int, offset: int, line: int) -> Monomial:
    exps = [0] * n
    for var, exp in pairs:
        if var > n:
            raise ParseError(f"variable x{var} out of range for n={n}", offset, line)
        exps[var - 1] += exp
    return Monomial(tuple(exps))


def _variable_count(n: int | None, indices: list[int], unit: str) -> int:
    """A given n through the integer rule, else the largest variable index used."""
    if n is not None:
        return _integers((n,), "n", 1, sys.maxsize)[0]
    if not indices:
        raise ParseError(f"cannot infer the variable count of the unit {unit}", 0, 1)
    return max(indices)


def parse_monomial(text: str, n: int | None = None) -> Monomial:
    """Parse a single monomial; n defaults to the largest variable index seen."""
    pairs = _parse_factors(_instance(text, str, "text"), 0, 1)
    n = _variable_count(n, [var for var, _ in pairs], "monomial")
    return _build_monomial(pairs, n, 0, 1)


def parse_ideal(text: str, n: int | None = None) -> MonomialIdeal:
    """Parse an ideal from `+`-joined and/or line-separated generators."""
    tokens: list[tuple[str, int, int]] = []
    for lineno, raw_line in enumerate(_instance(text, str, "text").splitlines(), start=1):
        if not raw_line.strip():
            continue
        offset = 0
        for piece in raw_line.split("+"):
            tokens.append((piece, offset, lineno))
            offset += len(piece) + 1
    if not tokens:
        raise ParseError("no generators given", 0, 1)
    parsed = [(_parse_factors(tok, off, ln), off, ln) for tok, off, ln in tokens]
    n = _variable_count(n, [var for pairs, _, _ in parsed for var, _ in pairs], "ideal")
    mons = [_build_monomial(pairs, n, off, ln) for pairs, off, ln in parsed]
    return MonomialIdeal(n, mons)


def _index_list(text: str, what: str) -> list[int]:
    """The comma-separated integers of text, each read by core._integer_text;
    anything else is a ParseError."""
    values = [_integer_text(p) for p in _instance(text, str, "text").split(",")]
    if None in values:
        raise ParseError(f"malformed {what} {text!r}", 0, 1)
    return values


def parse_variable_order(text: str) -> VariableOrder:
    """Parse a comma-separated permutation such as `3,2,1`."""
    perm = tuple(_index_list(text, "permutation"))
    try:
        return VariableOrder(perm)
    except ValueError as exc:
        raise ParseError(str(exc), 0, 1) from None


def ideal_to_json_dict(I: MonomialIdeal) -> dict:
    _instance(I, MonomialIdeal, "ideal")
    return {"n": I.n, "gens": [list(g.exponents) for g in I.gens]}


def _dumps(value: object, **options) -> str:
    """json.dumps, refusing an integer past the interpreter's limit on the
    digits of int-to-str conversion, such as the mask of a huge layer."""
    try:
        return json.dumps(value, **options)
    except ValueError as exc:
        raise BoundExceededError(f"cannot render the JSON: {exc}") from None


def dump_json(payload: dict) -> str:
    """Stamp payload with the schema, tool and version and render it deterministically."""
    stamped = {"schema": SCHEMA_VERSION, "tool": "polymat", "version": __version__, **payload}
    return _dumps(stamped, sort_keys=True, indent=2) + "\n"


def ideal_from_json_dict(data: dict) -> MonomialIdeal:
    """The ideal of a JSON document; "n" and the exponents go through the
    constructors' integer rule, and every refusal is a ParseError."""
    if not isinstance(data, dict) or "n" not in data or "gens" not in data:
        raise ParseError('ideal JSON needs "n" and "gens" fields', 0, 1)
    if not isinstance(data["gens"], list) or not data["gens"]:
        raise ParseError('"gens" must be a non-empty list of exponent vectors', 0, 1)
    mons = []
    for k, vec in enumerate(data["gens"]):
        if not isinstance(vec, list):
            raise ParseError(f"generator {k} is not an exponent vector", k, 1)
        try:
            mons.append(Monomial(tuple(vec)))
        except InvalidArgumentError as exc:
            raise ParseError(f"generator {k}: {exc}", k, 1) from None
    try:
        return MonomialIdeal(data["n"], mons)
    except PolymatError as exc:
        raise ParseError(str(exc), 0, 1) from None


def load_ideal_text(text: str, n: int | None = None) -> MonomialIdeal:
    """Parse an ideal from either the text format or the JSON form; a given
    n must agree with the "n" of a JSON document."""
    if _instance(text, str, "text").lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", exc.colno - 1, exc.lineno) from None
        ideal = ideal_from_json_dict(data)
        if n is not None and _integers((n,), "n", 1) != (ideal.n,):
            raise ParseError(f'n={n} was given, but the JSON says "n": {ideal.n}', 0, 1)
        return ideal
    return parse_ideal(text, n)
