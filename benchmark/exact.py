"""Independent exact arithmetic for the benchmark's expected values.

Nothing here imports ``involutive``: every expected dimension, character
sequence and census count the benchmark checks against is computed by
this module, with fraction-free (Bareiss) integer elimination.

Conventions match the program's documents: a tableau element is an
r x n matrix (list of rows), flattened column-major, entry (a, i) at
position i*r + a, so the first k columns of V* are a coordinate prefix.
A staircase coefficient is keyed (a, lam, i, b), 1-based, as in the
program's coefficient documents.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _integer_rows(rows) -> list[list[int]]:
    """Scale each row by the lcm of its denominators."""
    out = []
    for row in rows:
        den = 1
        for e in row:
            if isinstance(e, Fraction):
                den = lcm(den, e.denominator)
        out.append([int(e * den) for e in row])
    return out


def rank(rows) -> int:
    """Exact rank of a list of rational rows by Bareiss elimination."""
    a = _integer_rows(rows)
    if not a or not a[0]:
        return 0
    m, n = len(a), len(a[0])
    rk, prev = 0, 1
    for c in range(n):
        p = next((i for i in range(rk, m) if a[i][c]), None)
        if p is None:
            continue
        a[rk], a[p] = a[p], a[rk]
        piv = a[rk]
        pv = piv[c]
        for i in range(rk + 1, m):
            row = a[i]
            f = row[c]
            for j in range(c + 1, n):
                row[j] = (pv * row[j] - f * piv[j]) // prev
            row[c] = 0
        prev = pv
        rk += 1
        if rk == m:
            break
    return rk


def matmul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y)))
             for j in range(len(y[0]))] for i in range(len(x))]


def flatten(m, r: int, n: int) -> list:
    return [m[a][i] for i in range(n) for a in range(r)]


def cartan_bound(s) -> int:
    return sum(k * x for k, x in enumerate(s, start=1))


def staircase_slots(r: int, s, endovolutive: bool) -> list[tuple]:
    """Coefficient keys (a, lam, i, b) of a staircase presentation.

    With ``endovolutive`` only the free slots a <= s_lam are listed, in
    the order lam, i, a, b (the program's coefficient-variable order).
    """
    n = len(s)
    out = []
    for lam in range(1, n + 1):
        for i in range(lam, n + 1):
            for a in range(s[i - 1] + 1, r + 1):
                if endovolutive and a > s[lam - 1]:
                    continue
                for b in range(1, s[lam - 1] + 1):
                    out.append((a, lam, i, b))
    return out


def staircase_generators(r: int, s, coeffs: dict) -> list:
    """One r x n matrix per staircase slot (lam, b): a unit entry at
    (b, lam) plus the coefficients B^{a,lam}_{i,b} at (a, i)."""
    n = len(s)
    out = []
    for lam in range(1, n + 1):
        for b in range(1, s[lam - 1] + 1):
            m = [[0] * n for _ in range(r)]
            m[b - 1][lam - 1] = 1
            for i in range(lam, n + 1):
                for a in range(s[i - 1] + 1, r + 1):
                    v = coeffs.get((a, lam, i, b), 0)
                    if v:
                        m[a - 1][i - 1] = v
            out.append(m)
    return out


def dimension(mats, r: int, n: int) -> int:
    return rank([flatten(m, r, n) for m in mats])


def characters_in_basis(mats, r: int, n: int, w=None, v=None) -> tuple:
    """Column-prefix rank increments of the elements w @ m @ v."""
    rows = []
    for m in mats:
        if w is not None:
            m = matmul(w, m)
        if v is not None:
            m = matmul(m, v)
        rows.append(flatten(m, r, n))
    out, prev = [], 0
    for k in range(1, n + 1):
        rk = rank([row[:k * r] for row in rows])
        out.append(rk - prev)
        prev = rk
    return tuple(out)


def prolongation_dimension(mats, r: int, n: int) -> int:
    """dim A^(1): kernel of A (x) V* -> W (x) Wedge^2 V* on a basis of A."""
    basis, flat = [], []
    for m in mats:
        cand = flat + [flatten(m, r, n)]
        if rank(cand) == len(cand):
            flat = cand
            basis.append(m)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cols = len(basis) * n
    if not pairs or not cols:
        return cols
    rows = [[0] * cols for _ in range(len(pairs) * r)]
    for p, m in enumerate(basis):
        for k in range(n):
            c = p * n + k
            for idx, (i, j) in enumerate(pairs):
                for a in range(r):
                    val = 0
                    if k == j:
                        val += m[a][i]
                    if k == i:
                        val -= m[a][j]
                    rows[idx * r + a][c] = val
    return cols - rank(rows)


def involutive_presentation(r: int, s, coeffs: dict) -> bool:
    """dim A^(1) equals the Cartan bound of the declared characters.

    Cartan's inequality holds in every flag, and equality in one flag
    makes A involutive and that flag generic, so this certifies both.
    """
    mats = staircase_generators(r, s, coeffs)
    return prolongation_dimension(mats, r, len(s)) == cartan_bound(s)


def random_invertible(k: int, rng, bound: int) -> list:
    while True:
        m = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(k)]
        if rank(m) == k:
            return m


def generic_characters(mats, r: int, n: int, rng, flags: int = 3) -> tuple:
    """Lexicographically largest characters over the identity flag and
    ``flags`` random V* bases with entries in [-999, 999].

    A random flag is non-generic only on the zero set of a nonzero
    polynomial of degree <= dim A, so each misses with probability
    below dim A / 1999 (Schwartz-Zippel).
    """
    best = characters_in_basis(mats, r, n)
    for _ in range(flags):
        best = max(best, characters_in_basis(
            mats, r, n, v=random_invertible(n, rng, 999)))
    return best


def scramble(mats, r: int, n: int, rng) -> list:
    """The same subspace in seeded random bases of W and V*, spanned by
    seeded unimodular recombinations of the elements, shuffled."""
    p = random_invertible(r, rng, 2)
    q = random_invertible(n, rng, 2)
    moved = [matmul(matmul(p, m), q) for m in mats]
    out = []
    for j, m in enumerate(moved):
        acc = [row[:] for row in m]
        for k in range(j):
            c = rng.randint(-1, 1)
            if c:
                acc = [[x + c * y for x, y in zip(ra, rb)]
                       for ra, rb in zip(acc, moved[k])]
        out.append(acc)
    rng.shuffle(out)
    return out
