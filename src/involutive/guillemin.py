"""Normal-form subspaces of W and the commutativity checks on them.

Works on an endovolutive B-array in its fixed bases: the coordinate
subspaces W^-_i / W^+_i, the direction-dependent endomorphism
B(phi)(v), the rank-one locus W^1(phi), and the two structural checks
(restricted endomorphism + commutator vanishing on W^1(phi), and the
prolongation-restriction comparison).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .involutivity import BArray, NotEndovolutive, cartan_test, prolongation_dimension
from .linalg import RatMatrix, rank, row_basis, vstack
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
        m = _rows_of(self.basis)
        return rank(vstack([m, v.transpose()])) == self.dim

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
    out = RatMatrix.zeros(barr.r, barr.r)
    for lam in range(1, barr.ell + 1):
        c = Fraction(phi[lam - 1]) if lam <= len(phi) else Fraction(0)
        if c == 0:
            continue
        for i in range(1, barr.n + 1):
            vi = Fraction(v[i - 1]) if i <= len(v) else Fraction(0)
            if vi == 0:
                continue
            out = out + barr.block(lam, i).scale(c * vi)
    return out


def w1_of_phi(barr: BArray, phi: Sequence[Fraction]) -> Subspace:
    """Rank-one locus: z in W^-(phi) with the stacked eigen-conditions.

    Solves (sum_lam phi_lam B^lam_mu - phi_mu I) z = 0 for every
    mu <= ell, inside W^-(phi).  Components of phi past ell must
    vanish implicitly (they are ignored).
    """
    if not barr.is_endovolutive():
        raise NotEndovolutive("W^1(phi) is defined on an endovolutive array")
    phi = [Fraction(x) for x in phi]
    if all(c == 0 for c in phi[:barr.ell]):
        raise ZeroCovector("phi has no component in U*")
    kappa = _leading_index(barr, phi[:barr.ell])
    s_k = barr.characters.s[kappa - 1]
    blocks = []
    for mu in range(1, barr.ell + 1):
        m = RatMatrix.zeros(barr.r, barr.r)
        for lam in range(1, barr.ell + 1):
            if phi[lam - 1] != 0:
                m = m + barr.block(lam, mu).scale(phi[lam - 1])
        if phi[mu - 1] != 0:
            m = m - RatMatrix.identity(barr.r).scale(phi[mu - 1])
        blocks.append(m)
    # Constrain z to W^-(phi): unit rows on the coordinates past s_kappa.
    for a in range(s_k, barr.r):
        e = [Fraction(0)] * barr.r
        e[a] = Fraction(1)
        blocks.append(RatMatrix.from_rows([e]))
    from .linalg import kernel_basis
    system = vstack(blocks)
    return Subspace.from_vectors(barr.r, kernel_basis(system))


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
        dims.append(w1_of_phi(barr, phi).dim)
    return max(set(dims), key=lambda d: (dims.count(d), -d))


def check_gnf_commutativity(barr: BArray, phi: Sequence[Fraction],
                            sample_vectors: Sequence[Sequence] = (),
                            ) -> tuple[bool, Optional[dict]]:
    """Stability of W^1(phi) under B(phi)(v) and commutator vanishing.

    Tests all pairs drawn from ``sample_vectors`` plus the coordinate
    basis of V.  Returns (True, None) or (False, witness) with the
    first offending vector pair and element.
    """
    w1 = w1_of_phi(barr, phi)
    vs = [tuple(Fraction(x) for x in v) for v in sample_vectors]
    for i in range(barr.n):
        unit = [Fraction(0)] * barr.n
        unit[i] = Fraction(1)
        vs.append(tuple(unit))
    mats = [b_of_phi(barr, phi, v) for v in vs]
    for v, m in zip(vs, mats):
        for z in w1.basis:
            if not w1.contains(m @ z):
                return False, {"kind": "not-endomorphism", "v": v,
                               "z": tuple(z.entries())}
    for p in range(len(vs)):
        for q in range(p + 1, len(vs)):
            comm = mats[p] @ mats[q] - mats[q] @ mats[p]
            for z in w1.basis:
                if not (comm @ z).is_zero():
                    return False, {"kind": "commutator", "v": vs[p],
                                   "v_tilde": vs[q], "z": tuple(z.entries())}
    return True, None


def check_theorem_a(tab: Tableau, seed: int = 0, trials: int = 32) -> bool:
    """Prolongation dimensions agree under restriction to U.

    Computes dim A^(1) and dim (A|_U)^(1) by the oracle and re-runs
    Cartan's test on the restriction.  Meaningful for involutive input.
    """
    report = cartan_test(tab, seed=seed, trials=trials)
    ell = report.characters.ell
    if ell == tab.n:
        return True
    restricted = restrict_to_U(tab, report.basis, ell)
    dim_a1, _ = prolongation_dimension(tab)
    dim_a1_u, _ = prolongation_dimension(restricted)
    if dim_a1 != dim_a1_u:
        return False
    return cartan_test(restricted, seed=seed, trials=trials).involutive
