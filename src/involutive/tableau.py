"""Tableaux of PDE symbols and their coordinate presentations.

A tableau is a subspace A of W (x) V*, held as a spanning set of r x n
matrices.  In a generic pair of bases its independent generators pack
into a staircase: the first s_1 entries of column 1, the first s_2 of
column 2, and so on, with every remaining entry a fixed linear
combination of the staircase entries.  Those combinations are the
symbol coefficients B^{a,lam}_{i,b}, stored sparsely and 1-indexed to
match the usual index conventions.

Flattening convention: an r x n matrix is flattened column-major, entry
(a, i) at position (i-1)*r + (a-1), so "the first k columns" is a
coordinate prefix.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Optional

from .linalg import (
    RatMatrix,
    _denominator_lcm,
    _integer_rows,
    _pivot_columns,
    _random_invertible_rows,
    _rank,
    _scaled,
    rank,
)

_ZERO = Fraction(0)   # every absent coefficient


class TableauError(Exception):
    pass


class InvalidBasis(TableauError):
    pass


class NonGenericBasis(TableauError):
    pass


class NotInTableau(TableauError):
    pass


@dataclass(frozen=True)
class CartanCharacters:
    """Column-wise generator counts s_1 >= ... >= s_n >= 0."""

    s: tuple[int, ...]

    def __post_init__(self):
        if any(x < 0 for x in self.s):
            raise ValueError("characters must be non-negative")
        object.__setattr__(self, "s", tuple([int(x) for x in self.s]))

    @property
    def n(self) -> int:
        return len(self.s)

    @property
    def ell(self) -> int:
        """Index of the last nonzero character (0 when all vanish)."""
        last = 0
        for i, x in enumerate(self.s, start=1):
            if x > 0:
                last = i
        return last

    @property
    def dim(self) -> int:
        return sum(self.s)

    @property
    def cartan_bound(self) -> int:
        return sum(i * x for i, x in enumerate(self.s, start=1))

    def is_weakly_decreasing(self) -> bool:
        return all(a >= b for a, b in zip(self.s, self.s[1:]))

    def require_staircase(self):
        if not self.is_weakly_decreasing():
            raise ValueError(f"characters {self.s} are not weakly decreasing")


@dataclass(frozen=True)
class BasisPair:
    """Coordinate change on both sides of W (x) V*.

    An element with matrix pi in the original bases has matrix
    ``w_change @ pi @ v_change`` in the new ones.  A unit
    upper-triangular ``v_change`` is a Borel change of the V* flag.
    """

    w_change: RatMatrix
    v_change: RatMatrix

    def __post_init__(self):
        for m in (self.w_change, self.v_change):
            if m.rows != m.cols:
                raise InvalidBasis("basis change must be square")
            if rank(m) != m.rows:
                raise InvalidBasis("basis change must be invertible")

    @classmethod
    def identity(cls, r: int, n: int) -> "BasisPair":
        return cls._unchecked(RatMatrix.identity(r), RatMatrix.identity(n))

    @classmethod
    def _unchecked(cls, w_change: RatMatrix,
                   v_change: RatMatrix) -> "BasisPair":
        """Pair of matrices already known to be square and invertible."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "w_change", w_change)
        object.__setattr__(pair, "v_change", v_change)
        return pair

    def apply(self, pi: RatMatrix) -> RatMatrix:
        return self.w_change @ pi @ self.v_change


@dataclass(frozen=True)
class SymbolPresentation:
    """Staircase presentation of a tableau in a fixed generic basis pair.

    ``coefficients`` maps (a, lam, i, b) -> value, all indices 1-based,
    with lam <= i, b <= s_lam and a > s_i.  Missing keys are zero.
    """

    r: int
    characters: CartanCharacters
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        chars = self.characters
        chars.require_staircase()
        if chars.s and chars.s[0] > self.r:
            raise ValueError("s_1 exceeds dim W")
        clean = {}
        s = chars.s
        for (a, lam, i, b), val in self.coefficients.items():
            val = Fraction(val)
            if val == 0:
                continue
            if not (1 <= lam <= i <= chars.n):
                raise ValueError(f"bad column indices (lam={lam}, i={i})")
            if not (1 <= b <= s[lam - 1]):
                raise ValueError(f"coefficient column b={b} > s_{lam}")
            if not (s[i - 1] < a <= self.r):
                raise ValueError(f"coefficient row a={a} not below s_{i}")
            clean[(a, lam, i, b)] = val
        object.__setattr__(self, "coefficients", clean)

    @property
    def n(self) -> int:
        return self.characters.n

    def coefficient(self, a: int, lam: int, i: int, b: int) -> Fraction:
        return self.coefficients.get((a, lam, i, b), _ZERO)

    def generator_slots(self) -> list[tuple[int, int]]:
        """Staircase slots (lam, b) in column-then-row order."""
        return _slots(self.characters.s)

    def generator_matrix(self, lam: int, b: int) -> RatMatrix:
        """Spanning matrix for the generator z^b_lam (all other z zero)."""
        return RatMatrix.from_rows(self._generator_entries(lam, b))

    def _generator_entries(self, lam: int, b: int) -> list[list]:
        """``generator_matrix(lam, b)`` as r x n nested entries."""
        s = self.characters.s
        entries = [[0] * self.n for _ in range(self.r)]
        entries[b - 1][lam - 1] = 1
        for i in range(lam, self.n + 1):
            for a in range(s[i - 1] + 1, self.r + 1):
                v = self.coefficients.get((a, lam, i, b))
                if v:
                    entries[a - 1][i - 1] = v
        return entries

    def tableau(self) -> "Tableau":
        return tableau_from_coefficients(self)


class Tableau:
    """A subspace of W (x) V*: spanning r x n matrix k is ``rows[k] /
    scales[k]``, integer rows over the lcm of its denominators, all set
    by ``_from_rows``.  No reader writes into ``rows``; ``span``
    rebuilds the ``RatMatrix`` tuple on each read.

    ``==`` and ``hash`` compare the stored spanning set (the same
    matrices in the same order), not the subspace: two different
    spanning sets of one subspace are unequal."""

    __slots__ = ("r", "n", "scales", "rows")

    def __new__(cls, r: int, n: int, span):
        mats = []
        for m in span:
            if m.rows != r or m.cols != n:
                raise ValueError(f"spanning matrix is {m.rows}x{m.cols}, "
                                 f"expected {r}x{n}")
            mats.append(m.row_list())
        return cls._from_rows(r, n, mats)

    @classmethod
    def _from_rows(cls, r: int, n: int, mats: list) -> "Tableau":
        """Tableau spanned by ``mats``, r x n nested rows of ints or
        ``Fraction``s, each scaled by the lcm of its denominators."""
        tab = object.__new__(cls)
        tab.r, tab.n = r, n
        tab.scales = tuple([_denominator_lcm([e for row in m for e in row])
                            for m in mats])
        tab.rows = tuple([[_scaled(row, d) for row in m]
                          for m, d in zip(mats, tab.scales)])
        return tab

    def __setattr__(self, name, value):
        if hasattr(self, "rows"):
            raise AttributeError("Tableau is immutable")
        super().__setattr__(name, value)

    def __eq__(self, other):
        if not isinstance(other, Tableau):
            return NotImplemented
        return ((self.r, self.n, self.rows, self.scales)
                == (other.r, other.n, other.rows, other.scales))

    def __hash__(self):
        return hash((self.r, self.n, self.scales,
                     tuple([tuple(map(tuple, m)) for m in self.rows])))

    @property
    def span(self) -> tuple[RatMatrix, ...]:
        return tuple([RatMatrix(self.r, self.n,
                                [Fraction(e, d) for row in m for e in row])
                      for m, d in zip(self.rows, self.scales)])

    def stacked(self, basis: Optional[BasisPair] = None) -> RatMatrix:
        """Spanning set as rows of flattened (column-major) vectors."""
        mats = [m if basis is None else basis.apply(m) for m in self.span]
        flat = _flat([m.row_list() for m in mats], self.r, self.n)
        return RatMatrix(len(flat), self.r * self.n,
                         [e for row in flat for e in row])

    @property
    def dim(self) -> int:
        return _rank(_flat(self.rows, self.r, self.n))

    def contains(self, pi: RatMatrix) -> bool:
        m = _flat(self.rows + (_integer_rows(pi),), self.r, self.n)
        return _rank(m) == _rank(m[:-1])

    @classmethod
    def full(cls, r: int, n: int) -> "Tableau":
        return cls._from_rows(r, n, [
            [[int(b == a and j == i) for j in range(n)] for b in range(r)]
            for a in range(r) for i in range(n)])

    @classmethod
    def zero(cls, r: int, n: int) -> "Tableau":
        return cls(r, n, [])


def _flat(mats, r: int, n: int) -> list[list]:
    """Each r x n matrix of ``mats`` (nested rows) flattened column-major."""
    return [[m[a][i] for i in range(n) for a in range(r)] for m in mats]


def _slots(s: tuple[int, ...]) -> list[tuple[int, int]]:
    """Staircase slots (lam, b), 1-based, column by column."""
    return [(lam, b) for lam, k in enumerate(s, 1) for b in range(1, k + 1)]


def _reduce(tab: Tableau, basis: BasisPair) -> tuple[list[list[int]],
                                                  tuple[int, ...]]:
    """Integer basis rows and characters of ``tab`` in ``basis``, from one
    elimination.

    Row k is the k-th nonzero row of the reduced row echelon form of the
    stacked spanning set, multiplied by its pivot entry (its first
    nonzero entry); s_k = rk(<=k) - rk(<k) counts the rows pivoting in
    column k.  It is computed over Z (``_reduce_rows``).
    """
    if basis.w_change.rows != tab.r or basis.v_change.rows != tab.n:
        raise InvalidBasis("basis pair has wrong dimensions")
    return _reduce_rows(tab.r, tab.rows, _integer_rows(basis.w_change),
                        _integer_rows(basis.v_change))


def _reduce_rows(r: int, span, w, q) -> tuple[list[list[int]],
                                               tuple[int, ...]]:
    """``_reduce`` of the integer spanning matrices ``span`` in the
    integer pair (``w``, ``q``).

    Each stacked row P pi Q is formed in plain ints, column lam of P pi Q
    from the slice of flat pi Q that holds column lam of pi Q.  The
    integer rows are scalar multiples of the rational ones (each matrix
    was scaled by the lcm of its denominators), so they have the same
    RREF, and the elimination is over Z.
    """
    cuts = range(0, r * len(q), r)
    rows = [[sum(map(mul, w_row, col))
             for col in [row[c:c + r] for c in cuts] for w_row in w]
            for row in _pi_q(span, q)]
    pivots = _pivot_columns(rows, reduced=True)
    return rows[:len(pivots)], _counts(pivots, r, len(q))


def _counts(pivots: list[int], r: int, n: int) -> tuple[int, ...]:
    """Characters from the pivot columns of stacked column-major rows:
    s_k counts the pivots among the r coordinates of column k."""
    counts = [0] * n
    for c in pivots:
        counts[c // r] += 1
    return tuple(counts)


def characters_in_basis(tab: Tableau, basis: BasisPair) -> CartanCharacters:
    """Characters read off column-prefix ranks in the transformed basis."""
    return CartanCharacters(_reduce(tab, basis)[1])


def _staircase_order(s: tuple[int, ...], r: int) -> list[int]:
    """All flat positions, the staircase slots (b, lam) first, column by
    column, then the others in order."""
    stair = [(lam - 1) * r + (b - 1) for lam, b in _slots(s)]
    taken = set(stair)
    return stair + [c for c in range(r * len(s)) if c not in taken]


def _staircase_rows(rows: list[list[int]], s: tuple[int, ...],
                    r: int) -> Optional[list[list[int]]]:
    """``rows``, as ``_reduce`` returns them, with their columns in
    ``_staircase_order`` and eliminated over Z (Gauss-Jordan), or None
    when the staircase projection is not level-wise bijective.

    Bijective means, for each k, that the staircase slots of columns
    <= k span the projection of A onto the first k columns (generators
    packed to the top); this is what makes the symbol coefficients
    well-defined with the Fig-style triangular support.

    ``rows`` span the RREF with s_k rows pivoting in column k, so the
    projection onto the first k columns has rank s_1 + ... + s_k, and
    the staircase columns form a square block upper-triangular matrix
    whose k-th diagonal block pairs the rows pivoting in column k with
    the staircase slots of column k.  Every level is bijective exactly
    when every diagonal block is invertible, that is, when the whole
    matrix is: when the permuted rows pivot in the first ``dim A``
    columns.  Row g is then the element whose staircase slots are the
    g-th unit vector, times its pivot entry.
    """
    order = _staircase_order(s, r)
    a = [[row[c] for c in order] for row in rows]
    if _pivot_columns(a, reduced=True) != list(range(len(rows))):
        return None
    return a


@functools.lru_cache(maxsize=32)
def _candidates(r: int, n: int, seed: int, trials: int) -> tuple:
    """The identity pair, then ``trials`` seeded random pairs, drawn once
    per process for each key.

    A pair (P, Q) is two tuples of tuple rows of ints; the random ones
    are the draws of ``_random_invertible_rows`` from a fresh
    ``random.Random(seed)``.  The value is immutable, so two threads
    that miss at once compute equal tuples and need no lock.
    """
    rng = random.Random(seed)
    identity = [[[int(i == j) for j in range(d)] for i in range(d)]
                for d in (r, n)]
    draws = [[_random_invertible_rows(d, rng) for d in (r, n)]
             for _ in range(trials)]
    return tuple([tuple([tuple(map(tuple, m)) for m in pair])
                  for pair in [identity, *draws]])


def _pi_q(span, q) -> list[list[int]]:
    """pi Q for each integer spanning matrix pi, flattened column-major:
    entry (a, lam) of pi Q at position lam * r + a."""
    q_cols = list(zip(*q))
    return [[sum(map(mul, m_row, q_col)) for q_col in q_cols for m_row in m]
            for m in span]


def _evaluator(tab: Tableau):
    """Characters of an integer candidate pair and a thunk for its
    staircase check, from exact pivot columns (``_pivot_columns``).

    The spanning set is read as ``tab.rows``.  The characters of (P, Q)
    are those of (I, Q): pi -> P pi is invertible on every column
    prefix.  So a candidate costs the integer products pi Q and one
    elimination; only the staircase check, run for candidates that can
    replace the best one, forms P (pi Q) on the staircase slots.  The
    staircase columns of the stacked matrix have the rank of those of
    its RREF (``_staircase_rows``).

    ``_pi_q`` gives each pi Q as one flat column-major row, which is
    already a row of the stacked matrix in (I, Q).  The elimination
    overwrites a copy of those rows, so the staircase check reads
    column lam of pi Q from the same flat row as its slice
    [lam * r, (lam + 1) * r).
    """
    r, n = tab.r, tab.n

    def evaluate(pair):
        w, q = pair
        flat = _pi_q(tab.rows, q)
        found = _pivot_columns([row[:] for row in flat])
        chars = _counts(found, r, n)

        def staircase():
            stair = _pivot_columns(
                [[sum(map(mul, w[b], row[lam * r:(lam + 1) * r]))
                  for lam in range(n) for b in range(chars[lam])]
                 for row in flat])
            return len(stair) == len(found)
        return chars, staircase
    return evaluate


def _search(candidates, evaluate, certified):
    """(pair, characters) of the selection rule.

    The first candidate that is staircase-generic and ``certified``
    ends the search; otherwise the first one with the lexicographically
    maximal characters wins, a staircase-generic one preferred.
    """
    best: Optional[tuple] = None   # (chars, staircase_ok, candidate)
    for bp in candidates:
        chars, staircase = evaluate(bp)
        # a candidate that cannot replace the best one needs no staircase check
        if best is not None and (chars < best[0]
                                 or (chars == best[0] and best[1])):
            continue
        ok = staircase()
        if ok and certified(chars):
            return bp, chars
        if best is None or chars > best[0] or (ok and not best[1]):
            best = (chars, ok, bp)
    chars, _, bp = best
    return bp, chars


def find_generic_basis(tab: Tableau, seed: int = 0, trials: int = 32,
                       dim_a1: Optional[int] = None,
                       ) -> tuple[BasisPair, CartanCharacters]:
    """Search for a generic basis pair, stopping early when certified.

    Candidates are the identity pair plus at most ``trials`` seeded
    random invertible pairs (integer entries in [-9, 9]).  The returned
    pair is the first achieving the lexicographically maximal character
    sequence; among those, one passing the staircase-genericity rank
    checks is preferred.  Deterministic per seed.  The candidates are
    drawn once per process for each (r, n, seed, trials); the first
    search of a key draws all ``trials`` pairs.

    Every rank is exact.  The prefix ranks R_1 <= ... <= R_n of a flag
    are bounded by the generic ones, and the characters
    s_k = R_k - R_{k-1} are ordered lexicographically as the R_k are.
    A W change does not move them, so they are ranked on pi Q for a
    candidate (P, Q), and P enters only the staircase check.

    Certified early exit: every flag satisfies Cartan's inequality
    ``dim A^(1) <= s_1 + 2 s_2 + ... + n s_n``, and its bound
    ``sum_{k<n} (R_n - R_k)`` is at least the generic one, as R_n is
    ``dim A`` in every flag.  When ``dim_a1`` (``dim A^(1)``, from
    ``prolongation_dimension``) is given and equals a staircase-generic
    candidate's bound, every prefix rank is the generic one: the
    candidate has the generic characters, the tableau is involutive,
    and it is returned at once.  Otherwise every candidate is visited,
    and the characters rest on the seeded search.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pair, chars = _search(
        _candidates(tab.r, tab.n, seed, trials), _evaluator(tab),
        lambda chars: CartanCharacters(chars).cartan_bound == dim_a1)
    return _basis_pair(pair), CartanCharacters(chars)


def _basis_pair(pair) -> BasisPair:
    """``BasisPair`` of an integer candidate, invertible by construction."""
    w, q = pair
    return BasisPair._unchecked(RatMatrix.from_rows(w), RatMatrix.from_rows(q))


def extract_symbol_coefficients(tab: Tableau,
                                basis: BasisPair) -> SymbolPresentation:
    """Solve for the staircase coefficients of A in the given basis.

    Raises NonGenericBasis when the staircase slots fail to determine
    the remaining entries: the characters are not weakly decreasing, or
    the staircase projection is not bijective (generators not packed to
    the top).

    The element with unit staircase slot g is row g of the RREF of A
    with the staircase columns ordered first (``_staircase_rows``),
    which is eliminated over Z; ``Fraction`` appears only when each row
    is divided by its pivot.  Its slot lies in column lam, and it is a
    combination of the rows of A's RREF pivoting in column lam or later
    (the staircase block is block upper-triangular, so is its inverse),
    so it vanishes on the columns left of lam.
    """
    rows, s = _reduce(tab, basis)
    chars = CartanCharacters(s)
    if not chars.is_weakly_decreasing():
        raise NonGenericBasis(f"characters {chars.s} not weakly decreasing")
    adapted = _staircase_rows(rows, s, tab.r)
    if adapted is None:
        raise NonGenericBasis("staircase projection is not bijective")
    others = _staircase_order(s, tab.r)[len(rows):]
    coeffs = {}
    for g, (lam, b) in enumerate(_slots(s)):
        row = adapted[g]
        for c, val in zip(others, row[len(rows):]):
            if val == 0:
                continue
            i, a = divmod(c, tab.r)
            coeffs[(a + 1, lam, i + 1, b)] = Fraction(val, row[g])
    return SymbolPresentation(tab.r, chars, coeffs)


def tableau_from_coefficients(p: SymbolPresentation) -> Tableau:
    """Spanning-set tableau generated by the staircase presentation."""
    return Tableau._from_rows(p.r, p.n, [p._generator_entries(lam, b)
                                         for lam, b in p.generator_slots()])


def decompose_element(p: SymbolPresentation, pi: RatMatrix) -> list[RatMatrix]:
    """Split pi in A into its per-column generator parts.

    Returns [z_1, ..., z_n] with z_lam supported on the first s_lam
    coordinates of W, such that pi is the sum of the corresponding
    generator combinations; raises NotInTableau otherwise.
    """
    s = p.characters.s
    recon = RatMatrix.zeros(p.r, p.n)
    for lam, b in _slots(s):
        recon += p.generator_matrix(lam, b).scale(pi[b - 1, lam - 1])
    if recon != pi:
        raise NotInTableau("element is not in the tableau")
    return [RatMatrix.column([pi[b, lam] if b < s[lam] else 0
                              for b in range(p.r)]) for lam in range(p.n)]


def restrict_to_U(tab: Tableau, basis: BasisPair, ell: int) -> Tableau:
    """Image of A in W (x) U*: truncate to the first ell columns."""
    return Tableau(tab.r, ell, [basis.apply(m).select_columns(range(ell))
                                for m in tab.span])
