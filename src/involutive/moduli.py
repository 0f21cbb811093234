"""Exploring the space of endovolutive coefficient assignments.

For fixed characters, the free endovolutive coefficient slots are
formal variables.  ``involutivity.symbolic_conditions`` gives the
criterion's conditions as polynomials in them: degree-2 commutator
terms plus, from n = 4 on, nested corrections of higher degree.  This
module exports those polynomials as an ideal, samples assignments that
land on its variety, and exhaustively enumerates small censuses, all
at r = s_1: a larger r changes no condition (``symbolic_b_array``).
All three read the criterion's compile (``_compiled_conditions``), one
per characters and variant; the sampler and the census evaluate it per
assignment, and every kept sample is cross-checked against the
prolongation oracle.  The census refuses a coefficient set that
repeats a value; the sampler reads a repeat as a weight on its draw.

Polynomials are plain expanded term maps (``Poly``: monomial tuple ->
coefficient), no CAS involved.  Variable naming in exports is
``B[a,lam,i,b]`` with a stable lexicographic term order, so output is
diffable across runs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .involutivity import (  # noqa: F401  (re-exported)
    CoefficientVariable, Poly, _compiled_conditions, _evaluate, _whole,
    coefficient_variables, prolongation_dimension, symbolic_b_array,
    symbolic_conditions)
from .linalg import format_rational
from .tableau import CartanCharacters, SymbolPresentation, tableau_from_coefficients


class CensusTooLarge(Exception):
    pass


class OracleDisagreement(Exception):
    """The quadratic criterion and the prolongation oracle disagree."""


@dataclass(frozen=True)
class IdealGenerator:
    """One polynomial generator, terms in stable lexicographic order."""

    terms: tuple  # of (monomial, Fraction)

    @classmethod
    def from_poly(cls, p: dict) -> "IdealGenerator":
        """From {monomial of CoefficientVariable: coefficient}."""
        return cls(tuple(sorted(p.items(), key=lambda kv: kv[0])))

    def specialize(self, assignment: dict) -> Fraction:
        total = Fraction(0)
        for mono, c in self.terms:
            v = c
            for var in mono:
                v *= assignment[var]
            total += v
        return total

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx, (mono, c) in enumerate(self.terms):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            factors = [v.name() for v in mono]
            if mag != 1 or not factors:
                factors.insert(0, format_rational(mag))
            body = "*".join(factors)
            if idx == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


def export_ideal(chars: CartanCharacters,
                 variant: str = "theorem") -> list[IdealGenerator]:
    """The reduced conditions of the quadratic criterion as polynomials.

    Each generator is one entry of ``reduced_conditions`` on the
    symbolic B-array: a leading commutator entry plus, from n = 4 on,
    the nested correction terms, so degrees can exceed 2.  Returns the
    distinct nonzero polynomials in a stable order, deterministic in
    count and content.
    """
    variables = coefficient_variables(chars)
    seen = set()
    out = []
    for _, p in _compiled_conditions(chars.s, variant)[1]:
        gen = IdealGenerator.from_poly(
            {tuple(sorted(variables[k] for k in m)): Fraction(c)
             for m, c in p.terms.items()})
        if gen.terms not in seen:
            seen.add(gen.terms)
            out.append(gen)
    return out


def presentation_from_assignment(chars: CartanCharacters, assignment: dict,
                                 r: Optional[int] = None) -> SymbolPresentation:
    if r is None:
        r = chars.s[0] if chars.s else 0
    coeffs = {v.key: val for v, val in assignment.items() if val != 0}
    return SymbolPresentation(r, chars, coeffs)


def _verify_with_oracle(pres: SymbolPresentation):
    dim_a1, _ = prolongation_dimension(tableau_from_coefficients(pres))
    if dim_a1 != pres.characters.cartan_bound:
        raise OracleDisagreement(
            f"criterion says involutive, oracle dim A^(1) = {dim_a1} vs "
            f"bound {pres.characters.cartan_bound}")


def sample_involutive(chars: CartanCharacters, seed: int = 0, count: int = 10,
                      coefficient_set: Sequence = (-1, 0, 1),
                      variant: str = "theorem") -> list[SymbolPresentation]:
    """Seeded random assignments kept when the criterion reports involutive.

    Each slot is drawn uniformly from ``coefficient_set``, so a repeated
    value weights the draw.  Every kept sample (r = s_1) is
    cross-validated against the prolongation oracle; a mismatch raises
    OracleDisagreement.  Returns up to ``count`` presentations (one draw
    per requested sample).
    """
    rng = random.Random(seed)
    variables = coefficient_variables(chars)
    pool = [Fraction(c) for c in coefficient_set]
    _, conditions = _compiled_conditions(chars.s, variant)
    kept = []
    for _ in range(count):
        values = [rng.choice(pool) for _ in variables]
        if any(_evaluate(conditions, [_whole(v) for v in values])):
            continue
        pres = presentation_from_assignment(
            chars, dict(zip(variables, values)))
        _verify_with_oracle(pres)
        kept.append(pres)
    return kept


@dataclass
class CensusRecord:
    """Exhaustive count over all assignments from a finite coefficient set.

    Counts presentations in a fixed basis, not isomorphism classes of
    tableaux; non-Borel basis changes can identify distinct entries.
    """

    characters: CartanCharacters
    r: int
    coefficient_set: tuple
    variable_count: int
    total_assignments: int
    involutive_count: int
    violation_histogram: dict = field(default_factory=dict)

    note = ("counts are over presentations in a fixed basis, "
            "not isomorphism classes of tableaux")


def enumerate_census(chars: CartanCharacters, coefficient_set: Sequence,
                     cap: int, variant: str = "theorem") -> CensusRecord:
    """Exhaustive loop with exact filtering, at r = s_1; refuses runs
    larger than cap, and a coefficient set that repeats a value, which
    would count each assignment more than once."""
    variables = coefficient_variables(chars)
    pool = [Fraction(c) for c in coefficient_set]
    for k, c in enumerate(pool):
        if c in pool[:k]:
            raise ValueError(
                f"coefficient set repeats the value {format_rational(c)}")
    total = len(pool) ** len(variables)
    if total > cap:
        raise CensusTooLarge(
            f"{total} assignments exceed the cap of {cap}")
    _, conditions = _compiled_conditions(chars.s, variant)
    involutive = 0
    histogram: dict[int, int] = {}
    for values in itertools.product([_whole(v) for v in pool],
                                    repeat=len(variables)):
        violations = sum(1 for v in _evaluate(conditions, values) if v)
        histogram[violations] = histogram.get(violations, 0) + 1
        if not violations:
            involutive += 1
    return CensusRecord(
        characters=chars,
        r=chars.s[0] if chars.s else 0,
        coefficient_set=tuple(pool),
        variable_count=len(variables),
        total_assignments=total,
        involutive_count=involutive,
        violation_histogram=histogram,
    )
