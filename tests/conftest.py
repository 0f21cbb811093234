"""Shared fixtures: the two reference staircase families used throughout.

``presentation_310`` is the r=3, characters (3,1,0) family whose
involutivity is decided by a single condition T2 = R3; the free
coefficients P1, P2, P3, Q, T3 never matter.  ``presentation_321`` is
the r=3, characters (3,2,1) family with named slots P*, Q*, R*, T*.
``staircase_corpus`` draws seeded tableaux of every small shape.
``fraction_reduction`` and ``fraction_extraction`` are references
computed with ``Fraction`` products, ``rref`` and ``invert``.
``nested_b_array`` is the B-array of a presentation with nested
``Fraction`` lists as blocks, the numeric input of
``reduced_conditions``.
"""

import random
from fractions import Fraction

import pytest

from involutive import (
    BasisPair,
    CartanCharacters,
    RatMatrix,
    SymbolPresentation,
    Tableau,
    tableau_from_coefficients,
)
from involutive.involutivity import BArray, staircase_blocks
from involutive.linalg import (
    SingularMatrix,
    invert,
    random_invertible_rng,
    rref,
)
from involutive.tableau import NonGenericBasis
from involutive.moduli import coefficient_variables, presentation_from_assignment


def make_310(P1=0, P2=0, P3=0, Q=0, T2=1, T3=0, R3=1) -> SymbolPresentation:
    chars = CartanCharacters((3, 1, 0))
    coeffs = {
        (2, 1, 2, 3): Fraction(1),          # pi^2_2 = pi^3_1
        (1, 1, 3, 1): Fraction(P1),
        (1, 1, 3, 2): Fraction(P2),
        (1, 1, 3, 3): Fraction(P3),
        (1, 2, 3, 1): Fraction(Q),
        (2, 1, 3, 2): Fraction(T2),
        (2, 1, 3, 3): Fraction(T3),
        (3, 1, 3, 3): Fraction(R3),
    }
    return SymbolPresentation(3, chars, {k: v for k, v in coeffs.items() if v})


def make_321(P1=0, P2=0, P3=0, Q4=0, Q5=0,
             R1=0, R2=0, R3=0, T1=0, T2=0, T3=0) -> SymbolPresentation:
    chars = CartanCharacters((3, 2, 1))
    coeffs = {
        (3, 1, 2, 1): Fraction(P1),
        (3, 1, 2, 2): Fraction(P2),
        (3, 1, 2, 3): Fraction(P3),
        (2, 2, 3, 1): Fraction(Q4),
        (2, 2, 3, 2): Fraction(Q5),
        (3, 1, 3, 1): Fraction(R1),
        (3, 1, 3, 2): Fraction(R2),
        (3, 1, 3, 3): Fraction(R3),
        (2, 1, 3, 1): Fraction(T1),
        (2, 1, 3, 2): Fraction(T2),
        (2, 1, 3, 3): Fraction(T3),
    }
    return SymbolPresentation(3, chars, {k: v for k, v in coeffs.items() if v})


def nested_b_array(pres) -> BArray:
    """``build_b_array(pres)`` with nested ``Fraction`` lists as blocks."""
    return BArray(pres.r, pres.characters,
                  staircase_blocks(pres.characters, pres.r, pres.coefficient,
                                   Fraction(1)))


def staircase_corpus(seed, count, scramble=None):
    """Staircase tableaux by the acceptance pool's recipe (n <= 4, r <= 5,
    coefficients in [-2, 2]).  ``scramble="random"`` moves each into a
    seeded random basis pair; ``scramble="rows"`` reverses the W basis,
    which keeps the characters of every flag but breaks the staircase."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, r = rng.randint(1, 4), rng.randint(1, 5)
        s = tuple(sorted((rng.randint(0, r) for _ in range(n)), reverse=True))
        chars = CartanCharacters(s)
        asg = {v: Fraction(rng.randint(-2, 2))
               for v in coefficient_variables(chars)}
        tab = tableau_from_coefficients(
            presentation_from_assignment(chars, asg, r=r))
        if scramble == "random":
            bp = BasisPair(random_invertible_rng(r, rng),
                           random_invertible_rng(n, rng))
            tab = Tableau(r, n, [bp.apply(m) for m in tab.span])
        elif scramble == "rows":
            tab = Tableau(r, n, [RatMatrix.from_rows(m.row_list()[::-1])
                                 for m in tab.span])
        out.append(tab)
    return out


def fraction_reduction(tab, basis):
    """Nonzero rows of the RREF of ``tab.stacked(basis)``, and the
    characters (the number of pivots in each column)."""
    red, pivots = rref(tab.stacked(basis))
    counts = [0] * tab.n
    for c in pivots:
        counts[c // tab.r] += 1
    bm = red.submatrix(range(len(pivots)), range(tab.r * tab.n))
    return bm, tuple(counts)


def fraction_extraction(tab, basis):
    """``extract_symbol_coefficients`` by the inverse of the staircase
    block times the basis matrix, in ``Fraction`` products."""
    bm, s = fraction_reduction(tab, basis)
    chars = CartanCharacters(s)
    if not chars.is_weakly_decreasing():
        raise NonGenericBasis(f"characters {chars.s} not weakly decreasing")
    r, n = tab.r, tab.n
    if bm.rows == 0:
        return SymbolPresentation(r, chars, {})
    slots = [(lam, b) for lam in range(1, n + 1)
             for b in range(1, s[lam - 1] + 1)]
    try:
        gmat_inv = invert(bm.select_columns(
            [(lam - 1) * r + (b - 1) for lam, b in slots]))
    except SingularMatrix:
        raise NonGenericBasis(
            "staircase projection is not bijective") from None
    adapted = gmat_inv @ bm
    coeffs = {}
    for g, (lam, b) in enumerate(slots):
        row = adapted.row(g)
        for i in range(1, n + 1):
            for a in range(1, r + 1):
                val = row[(i - 1) * r + (a - 1)]
                if val == 0:
                    continue
                if a <= s[i - 1]:
                    if (i, a) != (lam, b):
                        raise NonGenericBasis("unexpected staircase entry")
                    continue
                if i < lam:
                    raise NonGenericBasis(
                        "dependence on columns left of the generator")
                coeffs[(a, lam, i, b)] = val
    return SymbolPresentation(r, chars, coeffs)


def spanning_variants(tab, k):
    """``tab`` and four spanning sets of the same subspace: the
    matrices scaled by fractions, a redundant combination appended, a
    zero matrix appended, and the order reversed."""
    span = tab.span
    scaled = [m.scale(Fraction(j + 1, j + k + 3)) for j, m in enumerate(span)]
    redundant = span
    if span:
        redundant = span + (span[0].scale(Fraction(-1, 2))
                            + span[-1].scale(Fraction(k + 1, 3)),)
    zero = span + (RatMatrix.zeros(tab.r, tab.n),)
    return [Tableau(tab.r, tab.n, x)
            for x in (span, scaled, redundant, zero, span[::-1])]


@pytest.fixture
def presentation_310():
    return make_310


@pytest.fixture
def presentation_321():
    return make_321
