"""Exploring the space of endovolutive coefficient assignments.

For fixed characters, the free endovolutive coefficient slots are
formal variables.  ``involutivity.symbolic_conditions`` gives the
criterion's conditions as polynomials in them: degree-2 commutator
terms plus, from n = 4 on, nested corrections of higher degree.  This
module exports those polynomials as an ideal, samples assignments that
land on its variety, and exhaustively enumerates small censuses.  The
sampler and the census compile the polynomials once per call and
evaluate them per assignment, as the criterion does; every kept sample
is still cross-checked against the prolongation oracle.

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
    CoefficientVariable, Poly, _evaluate, _whole, coefficient_variables,
    prolongation_dimension, symbolic_b_array, symbolic_conditions)
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


def export_ideal(chars: CartanCharacters, variant: str = "theorem",
                 r: Optional[int] = None) -> list[IdealGenerator]:
    """The reduced conditions of the quadratic criterion as polynomials.

    Each generator is one entry of ``reduced_conditions`` on the
    symbolic B-array: a leading commutator entry plus, from n = 4 on,
    the nested correction terms, so degrees can exceed 2.  Returns the
    distinct nonzero polynomials in a stable order, deterministic in
    count and content.  ``r`` defaults to s_1, which captures every
    condition (rows past s_1 are identically zero for endovolutive
    arrays).
    """
    variables = coefficient_variables(chars)
    seen = set()
    out = []
    for _, p in symbolic_conditions(chars, variant, r):
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


def _verify_with_oracle(pres: SymbolPresentation, criterion_empty: bool):
    tab = tableau_from_coefficients(pres)
    dim_a1, _ = prolongation_dimension(tab)
    oracle = dim_a1 == pres.characters.cartan_bound
    if oracle != criterion_empty:
        raise OracleDisagreement(
            f"criterion says {'involutive' if criterion_empty else 'not'}, "
            f"oracle dim A^(1) = {dim_a1} vs bound "
            f"{pres.characters.cartan_bound}")


def sample_involutive(chars: CartanCharacters, seed: int = 0, count: int = 10,
                      coefficient_set: Sequence = (-1, 0, 1),
                      r: Optional[int] = None,
                      variant: str = "theorem") -> list[SymbolPresentation]:
    """Seeded random assignments kept when the criterion reports involutive.

    Every kept sample is cross-validated against the prolongation
    oracle; a mismatch raises OracleDisagreement.  Returns up to
    ``count`` presentations (one draw per requested sample).
    """
    rng = random.Random(seed)
    variables = coefficient_variables(chars)
    pool = [Fraction(c) for c in coefficient_set]
    conditions = symbolic_conditions(chars, variant, r)
    kept = []
    for _ in range(count):
        values = [rng.choice(pool) for _ in variables]
        if any(_evaluate(conditions, [_whole(v) for v in values])):
            continue
        pres = presentation_from_assignment(
            chars, dict(zip(variables, values)), r)
        _verify_with_oracle(pres, True)
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
                     cap: int, r: Optional[int] = None,
                     variant: str = "theorem") -> CensusRecord:
    """Exhaustive loop with exact filtering; refuses runs larger than cap."""
    variables = coefficient_variables(chars)
    pool = [Fraction(c) for c in coefficient_set]
    total = len(pool) ** len(variables)
    if total > cap:
        raise CensusTooLarge(
            f"{total} assignments exceed the cap of {cap}")
    if r is None:
        r = chars.s[0] if chars.s else 0
    conditions = symbolic_conditions(chars, variant, r)
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
        r=r,
        coefficient_set=tuple(pool),
        variable_count=len(variables),
        total_assignments=total,
        involutive_count=involutive,
        violation_histogram=histogram,
    )
