"""Involutivity checks: the prolongation oracle and the quadratic criterion.

Two independent routes decide involutivity:

* the brute-force oracle builds the prolonged-symbol matrix and compares
  the kernel dimension with the bound s_1 + 2 s_2 + ... + n s_n;
* for an endovolutive presentation, the reduced wedge conditions --
  whose leading terms are the block commutators
  B^lam_i B^mu_j - B^lam_j B^mu_i on rows below s_i -- decide the same
  question without prolonging.

Both are exact; ``cartan_test`` runs both and reports everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .linalg import RatMatrix, _denominator_lcm, _pivot_columns
from .tableau import (
    BasisPair,
    CartanCharacters,
    NonGenericBasis,
    SymbolPresentation,
    Tableau,
    _find_generic_basis,
    _reduce,
    _span_rows,
    extract_symbol_coefficients,
)

VARIANTS = ("theorem", "proof")


class NotEndovolutive(Exception):
    pass


@dataclass(frozen=True)
class BArray:
    """ell x n grid of r x r symbol endomorphism blocks B^lam_i.

    Diagonal blocks carry the identity on the first s_lam coordinates;
    block (lam, i) with i < lam is zero.  Blocks are RatMatrix, except in
    ``moduli.symbolic_b_array``, whose blocks are the nested lists of
    ``staircase_blocks`` with polynomial entries.
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

    def block(self, lam: int, i: int) -> RatMatrix:
        return self.blocks[lam - 1][i - 1]

    def is_endovolutive(self) -> bool:
        """Every block in row lam vanishes outside its s_lam x s_lam corner."""
        s = self.characters.s
        for lam in range(1, self.ell + 1):
            for i in range(1, self.n + 1):
                blk = self.block(lam, i)
                for a in range(self.r):
                    for b in range(self.r):
                        if (a >= s[lam - 1] or b >= s[lam - 1]) and blk[a, b] != 0:
                            return False
        return True


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
    grid = staircase_blocks(p.characters, p.r, p.coefficient, Fraction(1))
    return BArray(p.r, p.characters,
                  tuple([tuple([RatMatrix.from_rows(m) for m in row])
                         for row in grid]))


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
        from .linalg import format_rational
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

    Only ring operations are used, so the blocks may also be r x r
    nested lists of polynomials (``moduli.symbolic_b_array``); the
    coefficient matrices are then nested lists too, with 0 for zero
    entries.
    """
    s = barr.characters.s
    r, n, ell = barr.r, barr.n, barr.ell
    if not ell:
        return {}
    numeric = isinstance(barr.block(1, 1), RatMatrix)
    rows = {(lam, i): (barr.block(lam, i).row_list() if numeric
                       else barr.block(lam, i))
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
                    cond = _zero_rows(s[i - 1], r) + below
                    out[(lam, mu, i, j)] = (RatMatrix.from_rows(cond)
                                            if numeric else cond)
    return out


def quadratic_criterion(barr: BArray,
                        variant: str = "theorem") -> list[QuadraticViolation]:
    """Nonzero reduced-condition entries; empty output means involutive.

    For each wedge-condition pair i < j, each free generator Z_{mu,lam}
    (lam < i, lam <= mu) carries an exact coefficient matrix whose
    leading term is B^lam_i B^mu_j - B^lam_j B^mu_i; every nonzero
    entry on rows a > s_i is reported.  The variant selects the mu
    range enumerated: "theorem" stops at mu < j, "proof" includes
    mu = j.  Both verdicts match the prolongation oracle on
    presentations whose declared basis is generic.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not barr.is_endovolutive():
        raise NotEndovolutive("quadratic criterion needs an endovolutive array")
    out = []
    for (lam, mu, i, j), mat in sorted(reduced_conditions(barr).items()):
        if variant == "theorem" and mu >= j:
            continue
        for a in range(1, barr.r + 1):
            for b in range(1, barr.r + 1):
                v = mat[a - 1, b - 1]
                if v != 0:
                    out.append(QuadraticViolation(lam, mu, i, j, a, b, v))
    return out


def prolongation_dimension(tab: Tableau) -> tuple[int, int]:
    """(dim of the prolonged tableau, dim of the degree-2 cokernel).

    Both are read off the rank of the prolonged symbol
    A (x) V* -> W (x) Wedge2 V*: one column per (basis element of A) x
    u^k, one row per w_a (x) u^i ^ u^j with i < j.  The basis of A is
    the integer Gauss-Jordan rows of the stacked spanning set, and the
    matrix is built and ranked over Z.  Forward-eliminated rows would
    not do: they keep stale entries left of each pivot, so they need
    not lie in A.
    """
    r, n = tab.r, tab.n
    flat = [[m[a][i] for i in range(n) for a in range(r)]  # column-major
            for m in _span_rows(tab)]
    elems = flat[:len(_pivot_columns(flat, 0, reduced=True))]
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
    rk = len(_pivot_columns(rows, 0))
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

    Returns None when inconclusive; that is not a proof of
    non-existence.  Retrying in another V* flag would not help: given
    the characters, the spaces have dimension s_lam, and the nesting
    ranks and the final ``is_endovolutive`` check are closed conditions
    on the flag.  So they hold either at every generic flag or only on
    a proper subvariety, and a failure at a generic flag leaves a
    random retry only a small chance (none succeeded in 799 measured
    runs).
    """
    return _search_endovolutive(tab, basis, None)


def _search_endovolutive(tab: Tableau, basis: BasisPair, reduced,
                         ) -> Optional[tuple[BasisPair, SymbolPresentation]]:
    """``search_endovolutive_basis``, reusing ``reduced`` when it is the
    ``_reduce(tab, basis)`` already made (as ``_find_generic_basis``
    returns it) and reducing otherwise."""
    rows, counts = reduced if reduced is not None else _reduce(tab, basis)
    chars = CartanCharacters(counts)
    if not chars.is_weakly_decreasing():
        return None
    s, r, ell = chars.s, tab.r, chars.ell
    if ell == 0:
        return basis, SymbolPresentation(r, chars, {})

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
    adapted: list = []
    for lam in range(ell, 0, -1):
        for v in flag[lam - 1]:
            if _rank(adapted + [v]) == len(adapted) + 1:
                adapted.append(v)
    for a in range(r):
        if len(adapted) == r:
            break
        unit = [int(i == a) for i in range(r)]
        if _rank(adapted + [unit]) == len(adapted) + 1:
            adapted.append(unit)
    # With U the integer vectors and D their first nonzero entries, the
    # adapted vectors are the rows of D^-1 U, and the new W change is
    # (U^T D^-1)^-1 W = D (U^T)^-1 W: D times the right block of the
    # RREF of [U^T | W], eliminated over Z (each row scaled by the lcm of
    # the denominators of W).  It is invertible: no rank check needed.
    w = basis.w_change
    lcm = _denominator_lcm(w.entries())
    aug = [[u[j] * lcm for u in adapted]
           + [e.numerator * (lcm // e.denominator) for e in w.row(j)]
           for j in range(r)]
    _pivot_columns(aug, 0, reduced=True)
    d = [next(x for x in u if x) for u in adapted]
    bp = BasisPair._unchecked(
        RatMatrix(r, r, [Fraction(d[k] * e, row[k])
                         for k, row in enumerate(aug) for e in row[r:]]),
        basis.v_change)
    try:
        pres = extract_symbol_coefficients(tab, bp)
    except NonGenericBasis:
        return None
    ok, _ = is_endovolutive(pres)
    return (bp, pres) if ok else None


def _rank(vectors) -> int:
    """Rank over Q of integer vectors."""
    return len(_pivot_columns([v[:] for v in vectors], 0))


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
    basis, chars, reduced = _find_generic_basis(tab, seed, trials, dim_a1)
    dim_a = chars.dim
    bound = chars.cartan_bound
    violations: list[QuadraticViolation] = []
    pres = None
    endo_basis = None
    inconclusive = False
    if dim_a == 0:
        endovolutive = True
    else:
        found = _search_endovolutive(tab, basis, reduced)
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
