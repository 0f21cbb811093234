"""Shared fixtures: the two reference staircase families used throughout.

``presentation_310`` is the r=3, characters (3,1,0) family whose
involutivity is decided by a single condition T2 = R3; the free
coefficients P1, P2, P3, Q, T3 never matter.  ``presentation_321`` is
the r=3, characters (3,2,1) family with named slots P*, Q*, R*, T*.
``staircase_corpus`` draws seeded tableaux of every small shape.
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
from involutive.linalg import random_invertible_rng
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


@pytest.fixture
def presentation_310():
    return make_310


@pytest.fixture
def presentation_321():
    return make_321
