"""Normal-form subspaces of W and the commutativity checks on them.

Works on an endovolutive B-array in its fixed bases: the coordinate
subspaces W^-_i / W^+_i, the direction-dependent endomorphism
B(phi)(v), the rank-one locus W^1(phi), and the two structural checks
(restricted endomorphism + commutator vanishing on W^1(phi), and the
prolongation-restriction comparison).

Everything is read off the blocks B^lam_i entry by entry, as
``block[a][b]`` of their nested ``Fraction`` lists: W^1(phi) is the
kernel of one stacked system, whose rank gives its dimension, and
commutators are tested on the images B(v)z, so no r x r product forms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .involutivity import BArray, NotEndovolutive, cartan_test
from .linalg import RatMatrix, kernel_basis, rank, row_basis
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


def _leading_index(barr: BArray, phi: Sequence[Fraction]) -> int:
    for idx, c in enumerate(phi, start=1):
        if c != 0:
            return idx
    raise ZeroCovector("all components of phi vanish")


def w_minus_of_phi(barr: BArray, phi: Sequence[Fraction]) -> Subspace:
    return w_minus(barr, _leading_index(barr, phi))


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
    r = barr.r
    return RatMatrix(r, r, [sum(c * e[a][b] for c, e in terms if e[a][b])
                            for a in range(r) for b in range(r)])


def _w1_system(barr: BArray, phi: Sequence[Fraction]) -> RatMatrix:
    """The rows (sum_lam phi_lam B^lam_mu - phi_mu I) for mu <= ell,
    then unit rows on the coordinates past s_kappa, which constrain z
    to W^-(phi).  Components of phi past ell are ignored."""
    if not barr.is_endovolutive():
        raise NotEndovolutive("W^1(phi) is defined on an endovolutive array")
    phi = [Fraction(x) for x in phi]
    if all(c == 0 for c in phi[:barr.ell]):
        raise ZeroCovector("phi has no component in U*")
    ell, r = barr.ell, barr.r
    s_k = barr.characters.s[_leading_index(barr, phi[:ell]) - 1]
    blocks = [[(c, barr.block(lam, mu))
               for lam, c in enumerate(phi[:ell], start=1) if c]
              for mu in range(1, ell + 1)]
    return RatMatrix.from_rows(
        [[sum(c * e[a][b] for c, e in blocks[mu] if e[a][b])
          - (phi[mu] if a == b else 0) for b in range(r)]
         for mu in range(ell) for a in range(r)]
        + [[int(a == b) for b in range(r)] for a in range(s_k, r)])


def w1_of_phi(barr: BArray, phi: Sequence[Fraction]) -> Subspace:
    """Rank-one locus: z in W^-(phi) with the stacked eigen-conditions.

    Solves (sum_lam phi_lam B^lam_mu - phi_mu I) z = 0 for every
    mu <= ell, inside W^-(phi).  Components of phi past ell must
    vanish implicitly (they are ignored).
    """
    return Subspace.from_vectors(barr.r, kernel_basis(_w1_system(barr, phi)))


def dim_w1_generic(barr: BArray, seed: int = 0, trials: int = 16) -> int:
    """Modal dimension of W^1(phi) over seeded random phi in U*.

    For an involutive tableau this equals s_ell.
    """
    if barr.ell == 0:
        return 0
    rng = random.Random(seed)
    dims = []
    for _ in range(trials):
        while True:
            phi = [Fraction(rng.randint(-9, 9)) for _ in range(barr.ell)]
            if any(phi):
                break
        dims.append(barr.r - rank(_w1_system(barr, phi)))
    return max(set(dims), key=lambda d: (dims.count(d), -d))


def check_gnf_commutativity(barr: BArray, phi: Sequence[Fraction],
                            sample_vectors: Sequence[Sequence] = (),
                            ) -> tuple[bool, Optional[dict]]:
    """Stability of W^1(phi) under B(phi)(v) and commutator vanishing.

    Tests all pairs drawn from ``sample_vectors`` plus the coordinate
    basis of V.  Returns (True, None) or (False, witness) with the
    first offending vector pair and element.  Each image B(v)z is
    formed once; the commutator on z is B(v)(B(v~)z) - B(v~)(B(v)z).
    """
    w1 = w1_of_phi(barr, phi)
    vs = [tuple(Fraction(x) for x in v) for v in sample_vectors]
    vs += [tuple(Fraction(int(j == i)) for j in range(barr.n))
           for i in range(barr.n)]
    mats = [b_of_phi(barr, phi, v) for v in vs]
    images = [[m @ z for z in w1.basis] for m in mats]
    for v, mzs in zip(vs, images):
        for z, mz in zip(w1.basis, mzs):
            if not w1.contains(mz):
                return False, {"kind": "not-endomorphism", "v": v,
                               "z": tuple(z.entries())}
    for p in range(len(vs)):
        for q in range(p + 1, len(vs)):
            for k, z in enumerate(w1.basis):
                if mats[p] @ images[q][k] != mats[q] @ images[p][k]:
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
