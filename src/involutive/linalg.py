"""Exact dense linear algebra over the rationals.

Everything downstream (characters, prolongations, the quadratic
criterion) reduces to rank / kernel / solve questions, and those are
only well-posed in exact arithmetic.  Matrices are immutable, row-major
and hold ``fractions.Fraction`` entries; ``RatMatrix`` converts only the
entries that are not already ``Fraction``s.

Matrices here are desk-scale (a few hundred entries), so plain Gaussian
elimination with exact pivoting is adequate.

Elimination needs no rationals.  ``rank`` and ``rref`` scale the matrix
by the lcm of its denominators (``_integer_rows``) and eliminate over Z
by cross-multiplication, dividing each new row by the gcd of its entries
(fraction-free elimination, after Bareiss 1968).  ``rank`` runs the loop
forward only; ``rref`` also clears above each pivot, and divides each
row by its pivot only when it forms the output, which is the unique
reduced row echelon form.  So reduced forms, kernels (``kernel_basis``),
solutions (``solve``) and inverses (``invert``) are computed over Z,
with ``Fraction`` only in the output.  ``_scaled`` is the only scaler of
rationals to integers in the package: ``Tableau`` applies it once to
each spanning matrix, ``_integer_rows`` to a ``RatMatrix`` (for ``rank``,
``rref``, ``Tableau.contains`` and basis pairs); ``tableau`` and
``involutivity`` rank integer rows with ``_rank`` or ``_pivot_columns``,
so the analyze path makes no product; ``@`` multiplies ``Fraction`` entries.
The generic-basis search feeds the elimination one flat integer row per
spanning matrix, pi Q flattened column-major (``tableau._pi_q``), each
entry a ``sum(map(mul, ...))`` dot product.  That one loop,
``_pivot_columns``, is the package's only elimination kernel, and every
rank in the package, the search's included, is exact.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Iterable, Sequence

QQ = Fraction  # short constructor alias, QQ(2, 3) etc.


class LinAlgError(Exception):
    pass


class SingularMatrix(LinAlgError):
    pass


class InconsistentSystem(LinAlgError):
    pass


class RatMatrix:
    """Immutable dense matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        # From a list: tuple() of a generator grows the tuple by
        # reallocation, which takes nothing from the interpreter's tuple
        # free lists but gives the tuple back to them when it is freed,
        # so they fill (to 2000 tuples per size) until a full collection.
        # A Fraction is kept as it is: Fraction() of a Fraction takes the
        # slow path of the abc isinstance checks.
        data = tuple([e if type(e) is Fraction else Fraction(e)
                      for e in entries])
        if len(data) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self._data = data

    def __setattr__(self, name, value):
        if hasattr(self, "_data"):
            raise AttributeError("RatMatrix is immutable")
        super().__setattr__(name, value)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, [e for row in rows for e in row])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def column(cls, entries: Sequence) -> "RatMatrix":
        entries = list(entries)
        return cls(len(entries), 1, entries)

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self._data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._data[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self._data[j::self.cols]

    def row_list(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def entries(self) -> tuple:
        return self._data

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._data == other._data)

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: [{body}])"

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(self.rows, self.cols,
                         [a + b for a, b in zip(self._data, other._data)])

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._check_same_shape(other)
        return RatMatrix(self.rows, self.cols,
                         [a - b for a, b in zip(self._data, other._data)])

    def scale(self, c) -> "RatMatrix":
        c = Fraction(c)
        return RatMatrix(self.rows, self.cols, [c * a for a in self._data])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                cj = other.col(j)
                out.append(sum((a * b for a, b in zip(ri, cj)), Fraction(0)))
        return RatMatrix(self.rows, other.cols, out)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows,
                         [self._data[i * self.cols + j]
                          for j in range(self.cols) for i in range(self.rows)])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        out = [self._data[i * self.cols + j] for i in row_idx for j in col_idx]
        return RatMatrix(len(row_idx), len(col_idx), out)

    def select_columns(self, col_idx: Sequence[int]) -> "RatMatrix":
        return self.submatrix(range(self.rows), col_idx)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self._data)

    def _check_same_shape(self, other: "RatMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def vstack(mats: Sequence[RatMatrix]) -> RatMatrix:
    cols = mats[0].cols
    data = []
    for m in mats:
        if m.cols != cols:
            raise ValueError("column count mismatch in vstack")
        data.extend(m.entries())
    return RatMatrix(sum(m.rows for m in mats), cols, data)


def hstack(mats: Sequence[RatMatrix]) -> RatMatrix:
    rows = mats[0].rows
    out = []
    for i in range(rows):
        for m in mats:
            if m.rows != rows:
                raise ValueError("row count mismatch in hstack")
            out.extend(m.row(i))
    return RatMatrix(rows, sum(m.cols for m in mats), out)


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row echelon form with the pivot column list.

    Pivot rule: first nonzero entry in column order, so the output is
    deterministic for a given input.
    """
    entries, pivots = _reduced_entries(_integer_rows(m))
    entries += [0] * ((m.rows - len(pivots)) * m.cols)
    return RatMatrix(m.rows, m.cols, entries), pivots


def _denominator_lcm(values: Iterable[Fraction]) -> int:
    """lcm of the denominators of ``values``.

    Folded pairwise rather than as ``math.lcm(*values)`` (and likewise
    the gcd in ``_pivot_columns``): CPython 3.11 keeps every freed
    20-tuple on a free list that it never draws from again, so star
    calls on 20 values (a 5 x 4 matrix, say) leave up to 2000 dead
    blocks that each pin a memory pool for the life of the process.
    """
    return functools.reduce(math.lcm, [e.denominator for e in values], 1)


def _scaled(values: Sequence[Fraction], d: int = 0) -> list[int]:
    """Rationals times d, by default the lcm of their denominators."""
    d = d or _denominator_lcm(values)
    return [x.numerator * (d // x.denominator) for x in values]


def _integer_rows(m: RatMatrix) -> list[list[int]]:
    """Rows of ``m`` scaled by the lcm of its denominators (same RREF)."""
    d = _denominator_lcm(m.entries())
    return [_scaled(m.row(i), d) for i in range(m.rows)]


def _reduced_entries(a: list[list[int]]) -> tuple[list[Fraction], list[int]]:
    """Entries of the nonzero rows of the RREF of the integer rows ``a``
    (which are overwritten), row by row, and its pivot columns."""
    pivots = _pivot_columns(a, reduced=True)
    zero = Fraction(0)
    return ([Fraction(e, row[pc]) if e else zero
             for row, pc in zip(a, pivots) for e in row], pivots)


def _pivot_columns(a: list[list[int]], reduced: bool = False) -> list[int]:
    """Pivot columns of the integer rows ``a``, which are overwritten.

    Elimination by cross-multiplication: a row becomes
    d * row - f * pivot_row, where d is the pivot and f the row's entry
    in the pivot column, and is then divided by the gcd of its entries,
    which keeps the entries small.  Neither step changes the row space
    over Q.

    Forward (the default), only the rows below the pivot row change,
    and only in the columns after the pivot, since the others are never
    read again.  With ``reduced`` (Gauss-Jordan) the rows above change
    too, whole rows are kept, and the first ``len(pivots)`` rows of
    ``a`` end as the RREF with each row multiplied by its pivot entry.
    """
    pivots: list[int] = []
    pr = 0
    for pc in range(len(a[0]) if a else 0):
        for found in range(pr, len(a)):
            if a[found][pc]:
                break
        else:
            continue
        a[pr], a[found] = a[found], a[pr]
        start = 0 if reduced else pc + 1
        d, piv = a[pr][pc], a[pr][start:]
        for i in range(0 if reduced else pr + 1, len(a)):
            f = a[i][pc]
            if not f or i == pr:
                continue
            row = [d * e - f * q for e, q in zip(a[i][start:], piv)]
            g = functools.reduce(math.gcd, row, 0)  # see _denominator_lcm
            a[i][start:] = [e // g for e in row] if g > 1 else row
        pivots.append(pc)
        pr += 1
        if pr == len(a):
            break
    return pivots


def rank(m: RatMatrix) -> int:
    """Exact rank, by fraction-free elimination over Z (``_integer_rows``)."""
    return len(_pivot_columns(_integer_rows(m)))


def _rank(rows: Sequence[list[int]]) -> int:
    """Rank over Q of integer rows, which are left unchanged."""
    return len(_pivot_columns([row[:] for row in rows]))


def row_basis(m: RatMatrix) -> list[RatMatrix]:
    """Basis of the row space, as 1xN matrices (rref rows)."""
    r, pivots = rref(m)
    return [RatMatrix(1, m.cols, r.row(i)) for i in range(len(pivots))]


def kernel_basis(m: RatMatrix) -> list[RatMatrix]:
    """Basis of the right kernel, as column vectors.

    Returns exactly ``cols - rank`` vectors; each satisfies M v = 0
    exactly.  Free variables are set to 1 one at a time, in column
    order.
    """
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    out = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i, f]
        out.append(RatMatrix.column(v))
    return out


def solve(m: RatMatrix, b: RatMatrix) -> RatMatrix:
    """One exact solution of M x = b (b a column vector).

    Free variables are set to zero.  Raises InconsistentSystem when no
    solution exists.
    """
    if b.rows != m.rows or b.cols != 1:
        raise ValueError("right-hand side shape mismatch")
    aug = hstack([m, b])
    r, pivots = rref(aug)
    if m.cols in pivots:
        raise InconsistentSystem("no exact solution")
    x = [Fraction(0)] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = r[i, m.cols]
    return RatMatrix.column(x)


def invert(m: RatMatrix) -> RatMatrix:
    if m.rows != m.cols:
        raise SingularMatrix("not square")
    aug = hstack([m, RatMatrix.identity(m.rows)])
    r, pivots = rref(aug)
    if pivots != list(range(m.rows)):
        raise SingularMatrix("matrix is singular")
    return r.select_columns(range(m.cols, 2 * m.cols))


def _random_invertible_rows(dim: int, rng: random.Random,
                            bound: int = 9) -> list[list[int]]:
    """The first seeded draw of dim x dim integers in [-bound, bound],
    row by row, that is invertible (exact rank ``dim``), as integer rows.
    """
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(dim)]
                for _ in range(dim)]
        if _rank(rows) == dim:
            return rows


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with arbitrary-precision integers."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        num, den = num.strip(), den.strip()
    else:
        num, den = s, "1"
    if not _is_int(num) or not _is_int(den):
        raise ValueError(f"malformed rational {text!r}")
    d = int(den)
    if d == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), d)


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _is_int(s: str) -> bool:
    if s.startswith("-") or s.startswith("+"):
        s = s[1:]
    return s.isdigit()
