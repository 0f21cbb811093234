"""Involutivity checks: the prolongation oracle and the quadratic criterion.

Two independent routes decide involutivity:

* the brute-force oracle builds the prolonged-symbol matrix and compares
  the kernel dimension with the bound s_1 + 2 s_2 + ... + n s_n;
* for an endovolutive presentation, the reduced wedge conditions --
  whose leading terms are the block commutators
  B^lam_i B^mu_j - B^lam_j B^mu_i on rows below s_i -- decide the same
  question without prolonging; the criterion and ``moduli`` evaluate
  them as the polynomials of ``symbolic_conditions``.

The B-array holds each block B^lam_i as one r x r nested list, with
``Fraction`` entries for a presentation and polynomial entries for the
symbolic array; every reader indexes ``block[a][b]``.  Both routes are
exact; ``cartan_test`` runs both and reports everything.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import (RatMatrix, _denominator_lcm, _pivot_columns, _rank,
                     _scaled, format_rational)
from .tableau import (
    BasisPair,
    CartanCharacters,
    SymbolPresentation,
    Tableau,
    _presentation,
    _reduce,
    find_generic_basis,
)

VARIANTS = ("theorem", "proof")


class NotEndovolutive(Exception):
    pass


@dataclass(frozen=True)
class BArray:
    """ell x n grid of r x r symbol endomorphism blocks B^lam_i.

    Diagonal blocks carry the identity on the first s_lam coordinates;
    block (lam, i) with i < lam is zero.  Each block is the r x r nested
    list that ``staircase_blocks`` builds, read as ``block[a][b]``:
    ``Fraction`` entries from ``build_b_array``, ``Poly`` entries from
    ``symbolic_b_array``, and the integer 0 for an empty slot.  No
    reader mutates a block.
    """

    r: int
    characters: CartanCharacters
    blocks: tuple  # blocks[lam-1][i-1]

    @property
    def n(self) -> int:
        return self.characters.n

    @property
    def ell(self) -> int:
        return self.characters.ell

    def block(self, lam: int, i: int) -> list:
        return self.blocks[lam - 1][i - 1]

    def is_endovolutive(self) -> bool:
        """Every block in row lam vanishes outside its s_lam x s_lam corner."""
        return not any(any(line[k:] if a < k else line)
                       for k, row in zip(self.characters.s, self.blocks)
                       for blk in row for a, line in enumerate(blk))


def staircase_blocks(chars: CartanCharacters, r: int, coefficient,
                     one) -> tuple:
    """ell x n grid of r x r nested lists: ``one`` on the first s_lam
    diagonal entries of block (lam, lam), ``coefficient(a, lam, i, b)``
    in block (lam, i >= lam) on rows a > s_i and columns b <= s_lam,
    and 0 elsewhere."""
    s = chars.s
    grid = []
    for lam in range(1, chars.ell + 1):
        row = []
        for i in range(1, chars.n + 1):
            entries = [[0] * r for _ in range(r)]
            if lam == i:
                for a in range(s[lam - 1]):
                    entries[a][a] = one
            if lam <= i:
                for a in range(s[i - 1] + 1, r + 1):
                    for b in range(1, s[lam - 1] + 1):
                        entries[a - 1][b - 1] = coefficient(a, lam, i, b)
            row.append(entries)
        grid.append(tuple(row))
    return tuple(grid)


def build_b_array(p: SymbolPresentation) -> BArray:
    """Assemble the B-array, inserting identities on diagonal blocks."""
    return BArray(p.r, p.characters, staircase_blocks(
        p.characters, p.r, p.coefficient, Fraction(1)))


def is_endovolutive(p: SymbolPresentation):
    """(True, None), or (False, first offending (a, lam, i, b))."""
    s = p.characters.s
    for key in sorted(p.coefficients):
        a, lam, i, b = key
        if a > s[lam - 1]:
            return False, key
    return True, None


@dataclass(frozen=True)
class QuadraticViolation:
    """One nonzero reduced-condition entry from the quadratic criterion.

    (lam, mu) label the free generator, (i, j) the wedge-condition
    column pair (lam < i < j, lam <= mu), and a > s_i the offending row.
    """

    lam: int
    mu: int
    i: int
    j: int
    a: int
    b: int
    value: Fraction

    def as_dict(self) -> dict:
        return {"lambda": self.lam, "mu": self.mu, "i": self.i, "j": self.j,
                "a": self.a, "b": self.b, "value": format_rational(self.value)}


def _matmul(x: list, y: list) -> list:
    """x @ y for square nested lists; zero entries (falsy) are skipped."""
    cols = list(zip(*y))
    return [[sum(p * q for p, q in zip(row, col) if p and q) for col in cols]
            for row in x]


def _zero_rows(count: int, r: int) -> list:
    return [[0] * r for _ in range(count)]


def _add(x: list, y: list) -> list:
    return [[p + q for p, q in zip(u, v)] for u, v in zip(x, y)]


def _accumulate(terms: dict, key, mat: list):
    cur = terms.get(key)
    terms[key] = mat if cur is None else _add(cur, mat)


# The two helpers below recurse into each other and share
# ctx = (s, r, ell, rows, memo), passed explicitly: nested closures
# would refer to each other through their cells, a reference cycle that
# keeps each call's memo alive until a full garbage collection.

def _expand(ctx: tuple, i: int, j: int) -> dict:
    """Raw combination of generators for the (i, j) wedge term."""
    s, r, ell, rows, _ = ctx
    terms: dict[tuple[int, int], list] = {}
    for mu in range(i, min(j, ell) + 1):
        if s[mu - 1] > 0:
            # B^mu_j restricted to its first s_mu columns
            _accumulate(terms, (mu, i),
                        [row[:s[mu - 1]] + [0] * (r - s[mu - 1])
                         for row in rows[(mu, j)]])
    for lam in range(1, min(i, ell + 1)):
        for key, mat in _reduce_z(ctx, lam, i).items():
            _accumulate(terms, key, _matmul(rows[(lam, j)], mat))
        for key, mat in _reduce_z(ctx, lam, j).items():
            _accumulate(terms, key, [[-v for v in row] for row in
                                     _matmul(rows[(lam, i)], mat)])
    return terms


def _reduce_z(ctx: tuple, i: int, j: int) -> dict:
    """Z_{i,j} (rows a <= s_i) in terms of the free generators."""
    s, r, _, _, memo = ctx
    if (i, j) not in memo:
        memo[(i, j)] = {k: m[:s[i - 1]] + _zero_rows(r - s[i - 1], r)
                        for k, m in _expand(ctx, i, j).items()}
    return memo[(i, j)]


def reduced_conditions(barr: BArray) -> dict:
    """Exact involutivity conditions per free prolongation generator.

    The wedge condition in columns (i, j), i < j, reduces -- by repeated
    substitution of the lower-column relations -- to a combination of
    the free generators Z_{mu,lam} (lam <= mu <= ell) whose coefficients
    must vanish on rows a > s_i.  The leading term of the coefficient of
    Z_{mu,lam} is the commutator B^lam_i B^mu_j - B^lam_j B^mu_i;
    nested substitutions contribute higher-degree correction products
    (first possible at n >= 4).  Returns a map from (lam, mu, i, j) to
    the r x r coefficient matrix, already restricted to rows a > s_i and
    omitting identically-zero coefficients.

    The blocks are ``BArray`` blocks of any ring; so are the
    coefficient matrices, with 0 for zero entries.
    ``symbolic_conditions`` runs it on polynomial blocks, and the
    numeric callers evaluate those polynomials instead of running it on
    ``Fraction`` blocks.
    """
    s = barr.characters.s
    r, n, ell = barr.r, barr.n, barr.ell
    rows = {(lam, i): barr.block(lam, i)
            for lam in range(1, ell + 1) for i in range(lam, n + 1)}
    ctx = (s, r, ell, rows, {})

    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for (mu, lam), mat in _expand(ctx, i, j).items():
                # negated so the leading term reads
                # B^lam_i B^mu_j - B^lam_j B^mu_i
                below = [[-v for v in row] for row in mat[s[i - 1]:]]
                if any(any(row) for row in below):
                    out[(lam, mu, i, j)] = _zero_rows(s[i - 1], r) + below
    return out


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


def symbolic_b_array(chars: CartanCharacters) -> BArray:
    """The B-array with every free slot a variable: the entry of
    block (lam, i) at (a, b) is the polynomial of variable k, where
    ``coefficient_variables(chars)[k]`` is B^{a,lam}_{i,b}.

    Its r is s_1, and nothing is lost for a larger r: an endovolutive
    block vanishes outside its s_lam x s_lam corner, so no condition
    entry outside s_1 x s_1 is nonzero."""
    r = chars.s[0] if chars.s else 0
    index = {v.key: k for k, v in enumerate(coefficient_variables(chars))}

    def coefficient(*key):
        return Poly({(index[key],): 1}) if key in index else 0

    return BArray(r, chars,
                  staircase_blocks(chars, r, coefficient, Poly({(): 1})))


def symbolic_conditions(chars: CartanCharacters,
                        variant: str = "theorem") -> list[tuple[tuple, Poly]]:
    """The nonzero entries of ``reduced_conditions`` on the symbolic
    B-array, as ((lam, mu, i, j, a, b), polynomial) in the order
    lam, i, j, mu, a, b; the variant selects the mu range as in
    ``quadratic_criterion``.  Each entry evaluated at an assignment is
    the numeric entry of the criterion there, since only ring
    operations build it."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    conds = reduced_conditions(symbolic_b_array(chars))
    out = []
    for lam, mu, i, j in sorted(conds, key=lambda k: (k[0], k[2], k[3], k[1])):
        if variant == "theorem" and mu >= j:
            continue
        for a, row in enumerate(conds[(lam, mu, i, j)], start=1):
            for b, p in enumerate(row, start=1):
                if p:
                    out.append(((lam, mu, i, j, a, b), p))
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


@functools.lru_cache(maxsize=128)  # (characters, variant) pairs
def _compiled_conditions(s: tuple, variant: str) -> tuple:
    """(free slot keys, ``symbolic_conditions`` in its own order), shared
    by every caller: none mutates the ``Poly`` objects."""
    chars = CartanCharacters(s)
    return (tuple(v.key for v in coefficient_variables(chars)),
            tuple(symbolic_conditions(chars, variant)))


def quadratic_criterion(barr: BArray,
                        variant: str = "theorem") -> list[QuadraticViolation]:
    """Nonzero reduced-condition entries; empty output means involutive.

    For each wedge-condition pair i < j, each free generator Z_{mu,lam}
    (lam < i, lam <= mu) carries an exact coefficient matrix whose
    leading term is B^lam_i B^mu_j - B^lam_j B^mu_i; every nonzero
    entry on rows a > s_i is reported.  The variant selects the mu
    range enumerated: "theorem" stops at mu < j, "proof" includes
    mu = j.  Both verdicts match the prolongation oracle on
    presentations whose declared basis is generic.  The entries are
    ``symbolic_conditions``, compiled once per characters and variant,
    evaluated at the array's free slots, sorted by (lam, mu, i, j, a, b).
    """
    if not barr.is_endovolutive():
        raise NotEndovolutive("quadratic criterion needs an endovolutive array")
    slots, conditions = _compiled_conditions(barr.characters.s, variant)
    values = [_whole(barr.block(lam, i)[a - 1][b - 1])
              for a, lam, i, b in slots]
    return [QuadraticViolation(*key, Fraction(v)) for key, v in sorted(
        (key, v) for (key, _), v in zip(conditions,
                                        _evaluate(conditions, values)) if v)]


def prolongation_dimension(tab: Tableau) -> tuple[int, int]:
    """(dim of the prolonged tableau, dim of the degree-2 cokernel).

    Both are read off the rank of the prolonged symbol
    A (x) V* -> W (x) Wedge2 V*: one column per (basis element of A) x
    u^k, one row per w_a (x) u^i ^ u^j with i < j.  The basis of A is
    the integer Gauss-Jordan rows of the stacked spanning set, which the
    tableau keeps (``Tableau._echelon``), and the matrix is built and
    ranked over Z.  Forward-eliminated rows would not do: they keep
    stale entries left of each pivot, so they need not lie in A.
    """
    r, n = tab.r, tab.n
    elems = tab._echelon()[0]
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(r):
                row = []
                for e in elems:
                    for k in range(n):
                        row.append(e[i * r + a] if k == j
                                   else -e[j * r + a] if k == i else 0)
                rows.append(row)
    rk = len(_pivot_columns(rows))
    return len(elems) * n - rk, len(rows) - rk


def search_endovolutive_basis(tab: Tableau, basis: BasisPair,
                              ) -> Optional[tuple[BasisPair, SymbolPresentation]]:
    """Look for a W-basis making the presentation endovolutive.

    For each lam, project the elements whose first lam-1 columns vanish
    onto column lam; when these spaces form a nested flag, a W-basis
    adapted to the flag is the unique candidate.  The spaces are read
    off the reduced row echelon form of A in ``basis``: the elements
    vanishing on columns < lam are spanned by its rows pivoting in
    column lam or later, and the rows pivoting in column lam project to
    an echelon basis of the lam-th space, of dimension s_lam.

    A is reduced once, in ``basis`` (``_reduce``).  The elimination
    that gives the adapted W change also carries the r-blocks of those
    rows, so it gives their coordinates in the new pair too, and the
    staircase coefficients are read off them (``_presentation``, as in
    ``extract_symbol_coefficients``) with no second reduction.

    Returns None when inconclusive; that is not a proof of
    non-existence.  Retrying in another V* flag would not help: given
    the characters, the spaces have dimension s_lam, and the nesting
    ranks and the final ``is_endovolutive`` check are closed conditions
    on the flag.  So they hold either at every generic flag or only on
    a proper subvariety, and a failure at a generic flag leaves a
    random retry only a small chance (none succeeded in 799 measured
    runs).
    """
    rows, counts = _reduce(tab, basis)
    chars = CartanCharacters(counts)
    if not chars.is_weakly_decreasing():
        return None
    s, r, ell = chars.s, tab.r, chars.ell

    # Column-lam block of the rows pivoting in column lam: in an RREF
    # every pivot column is a unit vector, so these blocks, divided by
    # their first nonzero entries (the pivots), are already reduced.
    flag = []
    top = 0
    for lam in range(1, ell + 1):
        flag.append([row[(lam - 1) * r:lam * r]
                     for row in rows[top:top + s[lam - 1]]])
        top += s[lam - 1]

    # Nesting check, then a W-basis with first s_lam vectors spanning
    # the lam-th flag space.
    for lam in range(1, ell):
        if _rank(flag[lam - 1] + flag[lam]) != s[lam - 1]:
            return None
    # The candidates (flag vectors from column ell down, then the unit
    # vectors) that are independent of those before them: the pivot
    # columns of the matrix with the candidates as its columns.
    cands = [v for lam in range(ell, 0, -1) for v in flag[lam - 1]]
    cands += [[int(i == a) for i in range(r)] for a in range(r)]
    adapted = [cands[k] for k in _pivot_columns(
        [[v[j] for v in cands] for j in range(r)])]
    # With U the integer vectors and D their first nonzero entries, the
    # adapted vectors are the rows of D^-1 U, and the new W change is
    # X W with X = (U^T D^-1)^-1 = D (U^T)^-1: D times the middle block
    # of the RREF of [U^T | W | C], eliminated over Z (scaled by the
    # lcm of the denominators of W).  It is invertible: no rank check
    # needed.  C holds the r-blocks of the held rows as its columns
    # (column h * n + lam is block lam of row h), and X maps each
    # block to its coordinates in the new pair.
    w = basis.w_change
    lcm = _denominator_lcm(w.entries())
    n = tab.n
    aug = [[u[j] * lcm for u in adapted] + _scaled(w.row(j), lcm)
           + [row[c + j] * lcm for row in rows for c in range(0, n * r, r)]
           for j in range(r)]
    _pivot_columns(aug, reduced=True)
    d = [next(x for x in u if x) for u in adapted]
    bp = BasisPair._unchecked(
        RatMatrix(r, r, [Fraction(d[k] * e, row[k])
                         for k, row in enumerate(aug)
                         for e in row[r:2 * r]]),
        basis.v_change)
    # Row k of aug is its pivot aug[k][k] times row k of
    # [I | (U^T)^-1 W | (U^T)^-1 C]: coordinate k of every block is
    # d[k] / aug[k][k] times aug[k]'s entry, and the held rows, all
    # times the lcm of the pivots, are integer rows of A in bp.
    pivots = functools.reduce(math.lcm,
                              [row[k] for k, row in enumerate(aug)], 1)
    scale = [d[k] * (pivots // row[k]) for k, row in enumerate(aug)]
    new_rows = [[scale[k] * aug[k][2 * r + h * n + lam]
                 for lam in range(n) for k in range(r)]
                for h in range(len(rows))]
    pres = _presentation(new_rows, chars, r)
    if pres is None:
        return None
    ok, _ = is_endovolutive(pres)
    return (bp, pres) if ok else None


@dataclass
class InvolutivityReport:
    """Everything ``cartan_test`` establishes about one tableau."""

    characters: CartanCharacters
    dim_A: int
    dim_A1: int
    cartan_bound: int
    involutive: bool
    endovolutive: bool
    endovolutive_inconclusive: bool
    violations: list[QuadraticViolation]
    dim_H1: int
    dim_H2: int
    basis: BasisPair
    variant: str
    presentation: Optional[SymbolPresentation] = None
    endo_basis: Optional[BasisPair] = None

    @property
    def characters_certified(self) -> bool:
        """True when dim A^(1) equals the bound of the returned flag.

        Cartan's inequality then proves the characters generic (and the
        tableau involutive); otherwise the characters and the
        non-involutive verdict rest on the seeded basis search.
        """
        return self.dim_A1 == self.cartan_bound

    def criterion_involutive(self) -> Optional[bool]:
        """Verdict of the quadratic criterion, None when inconclusive."""
        if self.endovolutive_inconclusive:
            return None
        return not self.violations


def cartan_test(tab: Tableau, seed: int = 0, trials: int = 32,
                variant: str = "theorem") -> InvolutivityReport:
    """Full pipeline: oracle, generic basis, endovolutive search, criterion.

    The oracle runs first so that ``dim A^(1)`` can stop the basis search
    at the first candidate it certifies.
    """
    dim_a1, dim_h2 = prolongation_dimension(tab)
    basis, chars = find_generic_basis(tab, seed, trials, dim_a1)
    dim_a = chars.dim
    bound = chars.cartan_bound
    violations: list[QuadraticViolation] = []
    pres = None
    endo_basis = None
    inconclusive = False
    if dim_a == 0:
        endovolutive = True
    else:
        found = search_endovolutive_basis(tab, basis)
        if found is None:
            endovolutive = False
            inconclusive = True
        else:
            endo_basis, pres = found
            endovolutive = True
            violations = quadratic_criterion(build_b_array(pres), variant)
    return InvolutivityReport(
        characters=chars,
        dim_A=dim_a,
        dim_A1=dim_a1,
        cartan_bound=bound,
        involutive=dim_a1 == bound,
        endovolutive=endovolutive,
        endovolutive_inconclusive=inconclusive,
        violations=violations,
        dim_H1=tab.r * tab.n - dim_a,
        dim_H2=dim_h2,
        basis=basis,
        variant=variant,
        presentation=pres,
        endo_basis=endo_basis,
    )
