"""Normal-form subspaces of W and the commutativity checks on them.

Works on an endovolutive B-array in its fixed bases: the coordinate
subspaces W^-_i / W^+_i, the direction-dependent endomorphism
B(phi)(v), the rank-one locus W^1(phi), and the two structural checks
(restricted endomorphism + commutator vanishing on W^1(phi), and the
prolongation-restriction comparison).

Everything is read off the blocks B^lam_i entry by entry, as
``block[a][b]`` of their nested lists: W^1(phi) is the kernel of one
stacked system, whose rank gives its dimension, and commutators are
tested on the images B(v)z, so no r x r product forms.  Both checks
are linear in v, so they run over the coordinate basis of V, which
decides every v.  They are integer rows: the blocks, phi and the basis
of W^1(phi) are scaled once per call by the lcm of their denominators.
The generic dimension is a mode over seeded draws of phi, not a
certified figure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .involutivity import BArray, NotEndovolutive, cartan_test
from .linalg import (RatMatrix, _denominator_lcm, _pivot_columns, _scaled,
                     kernel_basis, rank, row_basis)
from .tableau import Tableau, restrict_to_U


class ZeroCovector(Exception):
    pass


@dataclass(frozen=True)
class Subspace:
    """Subspace of a coordinate space, held by an independent basis."""

    ambient_dim: int
    basis: tuple  # of RatMatrix column vectors

    def __post_init__(self):
        for v in self.basis:
            if v.cols != 1 or v.rows != self.ambient_dim:
                raise ValueError("basis vector has wrong shape")
        if self.basis and rank(_rows_of(self.basis)) != len(self.basis):
            raise ValueError("basis vectors are dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: RatMatrix) -> bool:
        if not self.basis:
            return v.is_zero()
        return rank(_rows_of((*self.basis, v))) == self.dim

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.dim == other.dim
                and self.contains_subspace(other))

    def __hash__(self):
        # equal subspaces may be held by different bases
        return hash((self.ambient_dim, self.dim))

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        vectors = list(vectors)
        if not vectors:
            return cls(ambient_dim, ())
        basis = row_basis(_rows_of(vectors))
        return cls(ambient_dim, tuple(b.transpose() for b in basis))


def _rows_of(vectors) -> RatMatrix:
    return RatMatrix.from_rows([list(v.entries()) for v in vectors])


def coordinate_subspace(ambient_dim: int, coords: Sequence[int]) -> Subspace:
    basis = []
    for c in coords:
        e = [Fraction(0)] * ambient_dim
        e[c] = Fraction(1)
        basis.append(RatMatrix.column(e))
    return Subspace(ambient_dim, tuple(basis))


def w_minus(barr: BArray, i: int) -> Subspace:
    """Span of the first s_i coordinate vectors of W (zero for i > ell)."""
    s_i = barr.characters.s[i - 1] if i <= barr.n else 0
    return coordinate_subspace(barr.r, range(s_i))


def w_plus(barr: BArray, i: int) -> Subspace:
    s_i = barr.characters.s[i - 1] if i <= barr.n else 0
    return coordinate_subspace(barr.r, range(s_i, barr.r))


def _leading_index(phi: Sequence[Fraction]) -> int:
    for idx, c in enumerate(phi, start=1):
        if c != 0:
            return idx
    raise ZeroCovector("all components of phi vanish")


def w_minus_of_phi(barr: BArray, phi: Sequence[Fraction]) -> Subspace:
    return w_minus(barr, _leading_index(phi))


def b_of_phi(barr: BArray, phi: Sequence[Fraction],
             v: Sequence[Fraction]) -> RatMatrix:
    """The endomorphism sum_{lam,i} phi_lam v^i B^lam_i of W.

    Only the first ell components of phi matter; components past ell
    are ignored, matching the quotient the B-array lives on.
    """
    terms = [(Fraction(phi[lam - 1]) * Fraction(v[i - 1]),
              barr.block(lam, i))
             for lam in range(1, min(barr.ell, len(phi)) + 1)
             for i in range(1, min(barr.n, len(v)) + 1)
             if phi[lam - 1] and v[i - 1]]
    return RatMatrix.from_rows(_combination(terms, barr.r))


def _combination(terms, r: int) -> list[list]:
    """sum c * block over the (c, block) pairs, as r x r nested lists."""
    return [[sum(c * e[a][b] for c, e in terms if e[a][b])
             for b in range(r)] for a in range(r)]


def _integer_blocks(barr: BArray) -> tuple[int, list]:
    """D, the lcm of the blocks' denominators, and the blocks times D."""
    if not barr.is_endovolutive():
        raise NotEndovolutive("W^1(phi) is defined on an endovolutive array")
    d = _denominator_lcm(e for row in barr.blocks for blk in row
                         for line in blk for e in line)
    return d, [[[_scaled(line, d) for line in blk] for blk in row]
               for row in barr.blocks]


def _w1_system(barr: BArray, d: int, grid: list, phi: list[int]) -> list:
    """Rows (sum_lam phi_lam D B^lam_mu - D phi_mu I), mu <= ell, for an
    integer phi, then unit rows past s_kappa that keep z in W^-(phi)."""
    if not any(phi):
        raise ZeroCovector("phi has no component in U*")
    eye = [[int(a == b) for b in range(barr.r)] for a in range(barr.r)]
    s_k = barr.characters.s[_leading_index(phi) - 1]
    return [line for mu in range(barr.ell) for line in _combination(
        [(c, grid[lam][mu]) for lam, c in enumerate(phi) if c]
        + [(-d * phi[mu], eye)], barr.r)] + eye[s_k:]


def _w1(barr: BArray, phi: Sequence) -> tuple:
    """(D B, integer phi, ``_w1_system`` rows, W^1(phi): their kernel)."""
    d, grid = _integer_blocks(barr)
    phi = _scaled([Fraction(x) for x in phi[:barr.ell]])
    system = _w1_system(barr, d, grid, phi)
    return grid, phi, system, Subspace.from_vectors(
        barr.r, kernel_basis(RatMatrix.from_rows(system)))


def w1_of_phi(barr: BArray, phi: Sequence[Fraction]) -> Subspace:
    """Rank-one locus: z in W^-(phi) with the stacked eigen-conditions.

    Solves (sum_lam phi_lam B^lam_mu - phi_mu I) z = 0 for every
    mu <= ell, inside W^-(phi).  Components of phi past ell must
    vanish implicitly (they are ignored).
    """
    return _w1(barr, phi)[3]


def dim_w1_generic(barr: BArray, seed: int = 0, trials: int = 16) -> int:
    """Modal dimension of W^1(phi) over ``trials`` seeded draws of phi
    from [-9, 9]^ell, which is s_ell for an involutive tableau: a mode of
    exact ranks, not a certified figure."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if barr.ell == 0:
        return 0
    d, grid = _integer_blocks(barr)
    rng = random.Random(seed)
    dims = []
    for _ in range(trials):
        while True:
            phi = [rng.randint(-9, 9) for _ in range(barr.ell)]
            if any(phi):
                break
        dims.append(barr.r - len(_pivot_columns(
            _w1_system(barr, d, grid, phi))))
    return max(set(dims), key=lambda k: (dims.count(k), -k))


def _apply(m: list[list[int]], z: list[int]) -> list[int]:
    return [sum(map(mul, line, z)) for line in m]


def check_gnf_commutativity(barr: BArray, phi: Sequence[Fraction]
                            ) -> tuple[bool, Optional[dict]]:
    """Stability of W^1(phi) under B(phi)(v) and commutator vanishing.

    Both conditions are linear in v (the commutator is bilinear), so
    the coordinate basis e_1, ..., e_n of V decides them for every v.
    Returns (True, None) or (False, witness) with the first offending
    vector pair and element.  Each image B(e_i)z is formed once; the
    commutator on z is B(v)(B(v~)z) - B(v~)(B(v)z).  An image lies in
    W^1(phi) when the rows that define it vanish on it.
    """
    grid, phi, system, w1 = _w1(barr, phi)
    vs = [tuple(Fraction(int(j == i)) for j in range(barr.n))
          for i in range(barr.n)]
    mats = [_combination([(c, grid[lam][i]) for lam, c in enumerate(phi)
                          if c], barr.r) for i in range(barr.n)]
    zs = [_scaled(z.entries()) for z in w1.basis]
    images = [[_apply(m, z) for z in zs] for m in mats]
    for v, mzs in zip(vs, images):
        for z, mz in zip(w1.basis, mzs):
            if any(_apply(system, mz)):
                return False, {"kind": "not-endomorphism", "v": v,
                               "z": tuple(z.entries())}
    for p in range(len(vs)):
        for q in range(p + 1, len(vs)):
            for k, z in enumerate(w1.basis):
                if (_apply(mats[p], images[q][k])
                        != _apply(mats[q], images[p][k])):
                    return False, {"kind": "commutator", "v": vs[p],
                                   "v_tilde": vs[q], "z": tuple(z.entries())}
    return True, None


def check_theorem_a(tab: Tableau, seed: int = 0, trials: int = 32) -> bool:
    """Prolongation dimensions agree under restriction to U.

    Compares the dim A^(1) and dim (A|_U)^(1) that Cartan's test reads
    off the oracle, and requires the restriction to pass the test.
    Meaningful for involutive input.
    """
    report = cartan_test(tab, seed=seed, trials=trials)
    ell = report.characters.ell
    if ell == tab.n:
        return True
    rest = cartan_test(restrict_to_U(tab, report.basis, ell),
                       seed=seed, trials=trials)
    return report.dim_A1 == rest.dim_A1 and rest.involutive
