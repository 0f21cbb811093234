"""JSON tableau documents: the on-disk interchange format of the CLI.

A document carries either a spanning set ("basis" presentation) or a
staircase coefficient list ("coefficients" presentation, which also
needs the characters).  Rationals are strings "p" or "p/q", never
floats, so parse -> print round-trips exactly.  A spanning-set entry
that is an integer string is read as an ``int`` and any other as a
``Fraction``; ``Tableau`` scales both to the same integer rows, so the
tableau does not depend on how an entry is written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .linalg import RatMatrix, format_rational, parse_rational
from .tableau import CartanCharacters, SymbolPresentation, Tableau


class DocumentError(Exception):
    pass


@dataclass(frozen=True)
class TableauDocument:
    r: int
    n: int
    presentation: str  # "basis" or "coefficients"
    basis: Optional[Tableau] = None
    symbol: Optional[SymbolPresentation] = None

    def tableau(self) -> Tableau:
        if self.presentation == "basis":
            return self.basis
        return self.symbol.tableau()


def _require(cond: bool, field: str, msg: str):
    if not cond:
        raise DocumentError(f"{field}: {msg}")


def _parse_value(raw, field: str) -> Fraction:
    _require(isinstance(raw, str), field, "rationals must be strings 'p' or 'p/q'")
    try:
        return parse_rational(raw)
    except ValueError as exc:
        raise DocumentError(f"{field}: {exc}") from None


def _basis_entry(raw, mi: int, ri: int, ci: int):
    """A spanning-set entry: an ``int`` for an integer string (optional
    sign, then digits), a ``Fraction`` for any other rational string.
    The field name is formatted only for a refused entry, which
    ``_parse_value`` reports as it reports every other value."""
    if type(raw) is str:
        digits = raw[1:] if raw[:1] in ("+", "-") else raw
        try:
            return int(raw) if digits.isdigit() else parse_rational(raw)
        except ValueError:
            pass  # also a digit that int() refuses, such as '²'
    return _parse_value(raw, f"basis[{mi}][{ri}][{ci}]")


def document_from_dict(data: dict) -> TableauDocument:
    _require(isinstance(data, dict), "document", "must be a JSON object")
    for key in ("r", "n", "presentation"):
        _require(key in data, key, "missing required field")
    r, n = data["r"], data["n"]
    # type() rather than isinstance(): JSON true and false load as bool
    _require(type(r) is int and r >= 1, "r", "must be a positive integer")
    _require(type(n) is int and n >= 1, "n", "must be a positive integer")
    pres = data["presentation"]
    if pres == "basis":
        mats = data.get("basis")
        _require(isinstance(mats, list), "basis",
                 "must be a list of r x n matrices")
        span = []
        for mi, mat in enumerate(mats):
            field = f"basis[{mi}]"
            _require(isinstance(mat, list) and len(mat) == r, field,
                     f"must have {r} rows")
            rows = []
            for ri, row in enumerate(mat):
                if not (isinstance(row, list) and len(row) == n):
                    raise DocumentError(
                        f"{field}[{ri}]: must have {n} entries")
                rows.append([_basis_entry(e, mi, ri, ci)
                             for ci, e in enumerate(row)])
            span.append(rows)
        return TableauDocument(r, n, "basis", Tableau._from_rows(r, n, span))
    if pres == "coefficients":
        chars_raw = data.get("characters")
        _require(isinstance(chars_raw, list) and len(chars_raw) == n,
                 "characters", f"must be a list of {n} integers")
        _require(all(type(x) is int and x >= 0 for x in chars_raw),
                 "characters", "entries must be non-negative integers")
        try:
            chars = CartanCharacters(tuple(chars_raw))
            chars.require_staircase()
        except ValueError as exc:
            raise DocumentError(f"characters: {exc}") from None
        coeffs, first, recs = {}, {}, data.get("coefficients", [])
        _require(isinstance(recs, list), "coefficients", "must be a list")
        for ci, rec in enumerate(recs):
            field = f"coefficients[{ci}]"
            _require(isinstance(rec, dict), field, "must be an object")
            for key in ("a", "lambda", "i", "b", "value"):
                _require(key in rec, f"{field}.{key}", "missing")
            a, lam, i, b = rec["a"], rec["lambda"], rec["i"], rec["b"]
            for name, v in (("a", a), ("lambda", lam), ("i", i), ("b", b)):
                _require(type(v) is int and v >= 1, f"{field}.{name}",
                         "must be a positive integer")
            key = (a, lam, i, b)
            if key in first:
                raise DocumentError(
                    f"{field}: repeats the slot (a, lambda, i, b) = {key} "
                    f"of coefficients[{first[key]}]")
            first[key] = ci
            coeffs[key] = _parse_value(rec["value"], f"{field}.value")
        try:
            sym = SymbolPresentation(r, chars, coeffs)
        except ValueError as exc:
            raise DocumentError(f"coefficients: {exc}") from None
        return TableauDocument(r, n, "coefficients", symbol=sym)
    raise DocumentError(
        "presentation: must be 'basis' or 'coefficients'")


def load_document(path: str) -> TableauDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}") from None
    return document_from_dict(data)


def matrix_to_lists(m: RatMatrix) -> list:
    return [[format_rational(e) for e in m.row(i)] for i in range(m.rows)]


def presentation_to_dict(p: SymbolPresentation) -> dict:
    return {
        "r": p.r,
        "n": p.n,
        "presentation": "coefficients",
        "characters": list(p.characters.s),
        "coefficients": [
            {"a": a, "lambda": lam, "i": i, "b": b,
             "value": format_rational(v)}
            for (a, lam, i, b), v in sorted(p.coefficients.items())
        ],
    }


def save_presentation(p: SymbolPresentation, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(presentation_to_dict(p), fh, indent=2)
        fh.write("\n")
