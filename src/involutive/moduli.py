"""Exploring the space of endovolutive coefficient assignments.

For fixed characters, the free endovolutive coefficient slots are
formal variables.  ``reduced_conditions`` run on the B-array of these
variables gives the criterion's conditions as polynomials in them:
degree-2 commutator terms plus, from n = 4 on, nested corrections of
higher degree.  This module exports those polynomials as an ideal,
samples assignments that land on its variety, and exhaustively
enumerates small censuses.  The sampler and the census compile the
polynomials once per call and evaluate them per assignment; every kept
sample is still cross-checked against the prolongation oracle.

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

from .involutivity import (VARIANTS, BArray, prolongation_dimension,
                           reduced_conditions, staircase_blocks)
from .linalg import format_rational
from .tableau import CartanCharacters, SymbolPresentation, tableau_from_coefficients


class CensusTooLarge(Exception):
    pass


class OracleDisagreement(Exception):
    """The quadratic criterion and the prolongation oracle disagree."""


@dataclass(frozen=True, order=True)
class CoefficientVariable:
    """A free endovolutive coefficient slot B^{a,lam}_{i,b}."""

    a: int
    lam: int
    i: int
    b: int

    def name(self) -> str:
        return f"B[{self.a},{self.lam},{self.i},{self.b}]"

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (self.a, self.lam, self.i, self.b)


def coefficient_variables(chars: CartanCharacters) -> list[CoefficientVariable]:
    """Free slots of the endovolutive staircase: lam < i, b <= s_lam,
    s_i < a <= s_lam."""
    chars.require_staircase()
    s = chars.s
    out = []
    for lam in range(1, chars.ell + 1):
        for i in range(lam + 1, chars.n + 1):
            s_i = s[i - 1]
            for a in range(s_i + 1, s[lam - 1] + 1):
                for b in range(1, s[lam - 1] + 1):
                    out.append(CoefficientVariable(a, lam, i, b))
    return out


class Poly:
    """Sparse polynomial: {monomial: coefficient}, a monomial being a
    sorted tuple of variable indices (the empty tuple is the constant
    term).  The integer 0 acts as the zero polynomial in sums, so
    ``reduced_conditions`` can run on polynomial blocks."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "Poly":
        if not other:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            c += out.get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
        return Poly(out)

    __radd__ = __add__

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                else:
                    del out[m]
        return Poly(out)


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


def symbolic_b_array(chars: CartanCharacters,
                     r: Optional[int] = None) -> BArray:
    """The B-array with every free slot a variable: the entry of
    block (lam, i) at (a, b) is the polynomial of variable k, where
    ``coefficient_variables(chars)[k]`` is B^{a,lam}_{i,b}."""
    if r is None:
        r = chars.s[0] if chars.s else 0
    index = {v.key: k for k, v in enumerate(coefficient_variables(chars))}
    if chars.s and chars.s[0] > r:
        raise ValueError("s_1 exceeds dim W")

    def coefficient(*key):
        return Poly({(index[key],): 1}) if key in index else 0

    return BArray(r, chars,
                  staircase_blocks(chars, r, coefficient, Poly({(): 1})))


def symbolic_conditions(chars: CartanCharacters, variant: str = "theorem",
                        r: Optional[int] = None) -> list[tuple[tuple, Poly]]:
    """The nonzero entries of ``reduced_conditions`` on the symbolic
    B-array, as ((lam, mu, i, j, a, b), polynomial) in the order
    lam, i, j, mu, a, b; the variant selects the mu range as in
    ``quadratic_criterion``.  Each entry evaluated at an assignment is
    the numeric entry of the criterion there, since only ring
    operations build it."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    conds = reduced_conditions(symbolic_b_array(chars, r))
    out = []
    for lam, mu, i, j in sorted(conds, key=lambda k: (k[0], k[2], k[3], k[1])):
        if variant == "theorem" and mu >= j:
            continue
        for a, row in enumerate(conds[(lam, mu, i, j)], start=1):
            for b, p in enumerate(row, start=1):
                if p:
                    out.append(((lam, mu, i, j, a, b), p))
    return out


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


def _whole(v: Fraction):
    """``v`` as an int when it is one: evaluation runs faster on ints."""
    return v.numerator if v.denominator == 1 else v


def _evaluate(conditions: list, values: Sequence):
    """Value of each ``symbolic_conditions`` entry at ``values`` (indexed
    like ``coefficient_variables``): the criterion's entries there."""
    for _, p in conditions:
        total = 0
        for mono, c in p.terms.items():
            for k in mono:
                c *= values[k]
            total += c
        yield total


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
