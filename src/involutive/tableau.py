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

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .linalg import (
    RatMatrix,
    _denominator_lcm,
    _pivot_columns,
    _random_invertible_rows,
    pivot_columns_mod_p,
    rank,
    vstack,
)


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
        if self.ell and any(x > 0 for x in self.s[self.ell:]):
            raise ValueError("nonzero character after ell")


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
        return self.coefficients.get((a, lam, i, b), Fraction(0))

    def generator_slots(self) -> list[tuple[int, int]]:
        """Staircase slots (lam, b) in column-then-row order."""
        return [(lam, b)
                for lam in range(1, self.n + 1)
                for b in range(1, self.characters.s[lam - 1] + 1)]

    def generator_matrix(self, lam: int, b: int) -> RatMatrix:
        """Spanning matrix for the generator z^b_lam (all other z zero)."""
        s = self.characters.s
        entries = [[Fraction(0)] * self.n for _ in range(self.r)]
        entries[b - 1][lam - 1] = Fraction(1)
        for i in range(lam, self.n + 1):
            for a in range(s[i - 1] + 1, self.r + 1):
                v = self.coefficient(a, lam, i, b)
                if v:
                    entries[a - 1][i - 1] = v
        return RatMatrix.from_rows(entries)

    def tableau(self) -> "Tableau":
        return tableau_from_coefficients(self)


class Tableau:
    """A subspace of W (x) V*, r x n matrices, held by a spanning set."""

    __slots__ = ("r", "n", "span")

    def __init__(self, r: int, n: int, span):
        span = tuple(span)
        for m in span:
            if m.rows != r or m.cols != n:
                raise ValueError(f"spanning matrix is {m.rows}x{m.cols}, "
                                 f"expected {r}x{n}")
        self.r = r
        self.n = n
        self.span = span

    def __setattr__(self, name, value):
        if hasattr(self, "span"):
            raise AttributeError("Tableau is immutable")
        super().__setattr__(name, value)

    def stacked(self, basis: Optional[BasisPair] = None) -> RatMatrix:
        """Spanning set as rows of flattened (column-major) vectors."""
        if not self.span:
            return RatMatrix.zeros(0, self.r * self.n)
        rows = []
        for m in self.span:
            if basis is not None:
                m = basis.apply(m)
            rows.append([m[a, i] for i in range(self.n) for a in range(self.r)])
        return RatMatrix.from_rows(rows)

    @property
    def dim(self) -> int:
        return rank(self.stacked())

    def contains(self, pi: RatMatrix) -> bool:
        flat = RatMatrix.from_rows(
            [[pi[a, i] for i in range(self.n) for a in range(self.r)]])
        m = self.stacked()
        return rank(vstack([m, flat])) == rank(m)

    @classmethod
    def full(cls, r: int, n: int) -> "Tableau":
        span = []
        for a in range(r):
            for i in range(n):
                e = RatMatrix.zeros(r, n).row_list()
                e[a][i] = Fraction(1)
                span.append(RatMatrix.from_rows(e))
        return cls(r, n, span)

    @classmethod
    def zero(cls, r: int, n: int) -> "Tableau":
        return cls(r, n, [])


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
    return _reduce_rows(tab.r, _span_rows(tab), _integer_rows(basis.w_change),
                        _integer_rows(basis.v_change))


def _reduce_rows(r: int, span, w, q) -> tuple[list[list[int]],
                                               tuple[int, ...]]:
    """``_reduce`` of the integer spanning matrices ``span`` in the
    integer pair (``w``, ``q``).

    Each stacked row P pi Q is formed in plain ints.  The integer rows
    are scalar multiples of the rational ones (each matrix was scaled by
    the lcm of its denominators), so they have the same RREF, and the
    elimination is over Z.
    """
    rows = [[sum(x * y for x, y in zip(w_row, col))
             for col in cols for w_row in w] for cols in _pi_q(span, q)]
    pivots = _pivot_columns(rows, 0, reduced=True)
    counts = [0] * len(q)
    for p in pivots:
        counts[p // r] += 1
    return rows[:len(pivots)], tuple(counts)


def characters_in_basis(tab: Tableau, basis: BasisPair) -> CartanCharacters:
    """Characters read off column-prefix ranks in the transformed basis."""
    return CartanCharacters(_reduce(tab, basis)[1])


def _staircase_order(s: tuple[int, ...], r: int) -> list[int]:
    """All flat positions, the staircase slots (b, lam) first, column by
    column, then the others in order."""
    stair = [(lam - 1) * r + (b - 1)
             for lam in range(1, len(s) + 1)
             for b in range(1, s[lam - 1] + 1)]
    taken = set(stair)
    return stair + [c for c in range(r * len(s)) if c not in taken]


def _staircase_rows(rows: list[list[int]], s: tuple[int, ...], r: int,
                    reduced: bool = False) -> Optional[list[list[int]]]:
    """``rows``, as ``_reduce`` returns them, with their columns in
    ``_staircase_order`` and eliminated over Z (Gauss-Jordan with
    ``reduced``), or None when the staircase projection is not
    level-wise bijective.

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
    columns.  With ``reduced``, row g is then the element whose
    staircase slots are the g-th unit vector, times its pivot entry.
    """
    order = _staircase_order(s, r)
    a = [[row[c] for c in order] for row in rows]
    if _pivot_columns(a, 0, reduced) != list(range(len(rows))):
        return None
    return a


def _candidates(r: int, n: int, seed: int, trials: int):
    """The identity pair, then ``trials`` seeded random pairs, drawn lazily.

    A pair (P, Q) is two lists of integer rows; the random ones are the
    draws of ``random_invertible_rng``.
    """
    yield ([[int(i == j) for j in range(r)] for i in range(r)],
           [[int(i == j) for j in range(n)] for i in range(n)])
    rng = random.Random(seed)
    for _ in range(trials):
        p = _random_invertible_rows(r, rng)
        q = _random_invertible_rows(n, rng)
        yield p, q


def _integer_rows(m: RatMatrix) -> list[list[int]]:
    """Rows of ``m`` scaled by the lcm of its denominators."""
    scale = _denominator_lcm(m.entries())
    return [[e.numerator * (scale // e.denominator) for e in m.row(i)]
            for i in range(m.rows)]


def _span_rows(tab: Tableau) -> list[list[list[int]]]:
    """The spanning matrices of ``tab``, integerised (``_integer_rows``)."""
    return [_integer_rows(m) for m in tab.span]


def _pi_q(span, q) -> list[list[list[int]]]:
    """Columns of pi Q for each integer spanning matrix pi."""
    q_cols = list(zip(*q))
    return [[[sum(x * y for x, y in zip(m_row, q_col)) for m_row in m]
             for q_col in q_cols] for m in span]


def _exact_evaluator(tab: Tableau):
    """Characters of an integer candidate pair and a thunk for its
    staircase check, from one exact reduction."""
    span = _span_rows(tab)

    def evaluate(pair):
        rows, chars = _reduce_rows(tab.r, span, *pair)
        return chars, lambda: _staircase_rows(rows, chars, tab.r) is not None
    return evaluate


def _modular_evaluator(tab: Tableau):
    """``_exact_evaluator``'s values from ranks mod p (lower bounds).

    The spanning set is integerised once, and candidates are integer
    pairs.  The characters of (P, Q) are those of (I, Q): pi -> P pi is
    invertible on every column prefix.  So a candidate costs the integer
    products pi Q and one elimination mod p, which is never below that
    of P pi Q; only the staircase check, run for candidates that can
    replace the best one, forms P (pi Q) on the staircase slots.  The
    staircase columns of the stacked matrix have the rank of those of
    its RREF.
    """
    r, n = tab.r, tab.n
    span = _span_rows(tab)

    def evaluate(pair):
        w, q = pair
        prods = _pi_q(span, q)
        pivots = pivot_columns_mod_p([[e for col in cols for e in col]
                                      for cols in prods])
        counts = [0] * n
        for c in pivots:
            counts[c // r] += 1
        chars = tuple(counts)

        def staircase():
            stair = pivot_columns_mod_p(
                [[sum(x * y for x, y in zip(w[b], cols[lam]))
                  for lam in range(n) for b in range(chars[lam])]
                 for cols in prods])
            return len(stair) == len(pivots)
        return chars, staircase
    return evaluate


def _search(candidates, evaluate, certified):
    """(pair, characters, staircase flag, certified) of the selection rule.

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
            return bp, chars, ok, True
        if best is None or chars > best[0] or (ok and not best[1]):
            best = (chars, ok, bp)
    chars, ok, bp = best
    return bp, chars, ok, False


def find_generic_basis(tab: Tableau, seed: int = 0, trials: int = 32,
                       dim_a1: Optional[int] = None,
                       ) -> tuple[BasisPair, CartanCharacters]:
    """Search for a generic basis pair, stopping early when certified.

    Candidates are the identity pair plus at most ``trials`` seeded
    random invertible pairs (integer entries in [-9, 9]).  The returned
    pair is the first achieving the lexicographically maximal character
    sequence; among those, one passing the staircase-genericity rank
    checks is preferred.  Deterministic per seed.

    Candidates are screened mod p = ``linalg.MODULUS``: the prefix
    ranks R_1 <= ... <= R_n of a flag mod p are lower bounds on its
    exact ones, which are bounded by the generic ones.  The characters
    are s_k = R_k - R_{k-1}, ordered lexicographically as the R_k are.
    A W change does not move them, so they are ranked on pi Q for a
    candidate (P, Q), and P enters only the staircase check.

    Certified early exit: every flag satisfies Cartan's inequality
    ``dim A^(1) <= s_1 + 2 s_2 + ... + n s_n``.  When ``dim_a1``
    (``dim A^(1)``, from ``prolongation_dimension``) is given and a
    candidate's total rank mod p is the exact ``dim A``, its mod-p bound
    ``sum_{k<n} (R_n - R_k)`` is at least its exact bound, hence at
    least the generic bound and ``dim A^(1)``.  Equality forces every
    prefix rank mod p to be the exact, generic one, and a staircase
    rank mod p of ``dim A`` is then exact too: the candidate has the
    generic characters, the tableau is involutive, and it is returned
    without exact elimination.  ``dim A`` is exact when the total rank
    mod p equals the number of spanning matrices, else from ``tab.dim``.

    Otherwise every candidate is visited, the characters rest on the
    seeded search, and the winner is reduced exactly.  If its exact
    characters or staircase flag differ from the mod-p ones, p divides
    a minor the comparison read (an unlucky prime), and the search is
    rerun with exact elimination.  So the returned characters are always
    exact in the returned flag, and the pair is the exact search's
    unless p divides a nonzero minor of another candidate, which no
    lower bound can detect.
    """
    bp, chars, _ = _find_generic_basis(tab, seed, trials, dim_a1)
    return bp, chars


def _find_generic_basis(tab: Tableau, seed: int, trials: int,
                        dim_a1: Optional[int]):
    """``find_generic_basis``'s pair and characters, and the ``_reduce``
    of the pair that verified them (None when no exact reduction of the
    returned pair was made)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dim_a = None   # tab.dim, computed at most once

    def certified(chars):
        nonlocal dim_a
        if CartanCharacters(chars).cartan_bound != dim_a1:
            return False
        total = sum(chars)
        if total == len(tab.span):    # rank mod p <= exact rank <= rows
            return True
        if dim_a is None:
            dim_a = tab.dim
        return total == dim_a

    pair, chars, ok, done = _search(_candidates(tab.r, tab.n, seed, trials),
                                    _modular_evaluator(tab), certified)
    bp = _basis_pair(pair)
    reduced = None
    if not done:
        reduced = _reduce(tab, bp)
        rows, exact_chars = reduced
        exact_ok = _staircase_rows(rows, exact_chars, tab.r) is not None
        if (exact_chars, exact_ok) != (chars, ok):
            pair, chars, _, _ = _search(
                _candidates(tab.r, tab.n, seed, trials),
                _exact_evaluator(tab), certified)
            bp = _basis_pair(pair)
            reduced = None
    return bp, CartanCharacters(chars), reduced


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
    r, n = tab.r, tab.n
    adapted = _staircase_rows(rows, s, r, reduced=True)
    if adapted is None:
        raise NonGenericBasis("staircase projection is not bijective")
    others = _staircase_order(s, r)[len(rows):]
    coeffs = {}
    slots = [(lam, b) for lam in range(1, n + 1)
             for b in range(1, s[lam - 1] + 1)]
    for g, (lam, b) in enumerate(slots):
        row = adapted[g]
        for c, val in zip(others, row[len(rows):]):
            if val == 0:
                continue
            i, a = divmod(c, r)
            coeffs[(a + 1, lam, i + 1, b)] = Fraction(val, row[g])
    return SymbolPresentation(r, chars, coeffs)


def tableau_from_coefficients(p: SymbolPresentation) -> Tableau:
    """Spanning-set tableau generated by the staircase presentation."""
    return Tableau(p.r, p.n,
                   [p.generator_matrix(lam, b)
                    for (lam, b) in p.generator_slots()])


def decompose_element(p: SymbolPresentation, pi: RatMatrix) -> list[RatMatrix]:
    """Split pi in A into its per-column generator parts.

    Returns [z_1, ..., z_n] with z_lam supported on the first s_lam
    coordinates of W, such that pi is the sum of the corresponding
    generator combinations; raises NotInTableau otherwise.
    """
    s = p.characters.s
    zs = []
    recon = RatMatrix.zeros(p.r, p.n)
    for lam in range(1, p.n + 1):
        z = [Fraction(0)] * p.r
        for b in range(1, s[lam - 1] + 1):
            z[b - 1] = pi[b - 1, lam - 1]
            if z[b - 1]:
                recon = recon + p.generator_matrix(lam, b).scale(z[b - 1])
        zs.append(RatMatrix.column(z))
    if recon != pi:
        raise NotInTableau("element is not in the tableau")
    return zs


def restrict_to_U(tab: Tableau, basis: BasisPair, ell: int) -> Tableau:
    """Image of A in W (x) U*: truncate to the first ell columns."""
    span = []
    for m in tab.span:
        t = basis.apply(m)
        span.append(t.select_columns(range(ell)))
    return Tableau(tab.r, ell, span)
