"""Normal-form subspaces, the rank-one locus, and structural checks."""

import random
from fractions import Fraction

import pytest

from involutive import (
    CartanCharacters,
    RatMatrix,
    Subspace,
    SymbolPresentation,
    b_of_phi,
    build_b_array,
    cartan_test,
    check_gnf_commutativity,
    check_theorem_a,
    coordinate_subspace,
    dim_w1_generic,
    tableau_from_coefficients,
    w1_of_phi,
    w_minus,
    w_minus_of_phi,
    w_plus,
)
from involutive.guillemin import ZeroCovector
from involutive.involutivity import NotEndovolutive, prolongation_dimension
from involutive.linalg import kernel_basis, rank, vstack
from involutive.moduli import coefficient_variables, presentation_from_assignment
from involutive.tableau import restrict_to_U
from conftest import endovolutive_corpus, make_310, make_321


def e(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return RatMatrix.column(v)


class TestSubspace:
    def test_dim_and_contains(self):
        s = Subspace.from_vectors(3, [e(3, 0), e(3, 1)])
        assert s.dim == 2
        assert s.contains(e(3, 0) + e(3, 1).scale(5))
        assert not s.contains(e(3, 2))

    def test_from_vectors_prunes_dependents(self):
        s = Subspace.from_vectors(2, [e(2, 0), e(2, 0).scale(3)])
        assert s.dim == 1

    def test_equality_is_span_equality(self):
        a = Subspace.from_vectors(2, [e(2, 0), e(2, 1)])
        b = Subspace.from_vectors(2, [e(2, 0) + e(2, 1), e(2, 1)])
        assert a == b

    def test_equal_subspaces_hash_equal(self):
        # equality is of spans, so the hash may not read the basis
        a = Subspace.from_vectors(2, [e(2, 0)])
        b = Subspace(2, (e(2, 0).scale(2),))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert len({a, Subspace.from_vectors(2, [e(2, 1)])}) == 2

    def test_rejects_dependent_basis(self):
        with pytest.raises(ValueError):
            Subspace(2, (e(2, 0), e(2, 0)))

    def test_coordinate_subspace(self):
        s = coordinate_subspace(4, [1, 3])
        assert s.dim == 2 and s.contains(e(4, 3))


class TestWSplitting:
    def test_w_minus_plus_complementary(self):
        barr = build_b_array(make_310())
        for i in (1, 2, 3):
            lo, hi = w_minus(barr, i), w_plus(barr, i)
            assert lo.dim + hi.dim == barr.r
            for v in lo.basis:
                assert not hi.contains(v) or v.is_zero()

    def test_w_minus_dims_follow_characters(self):
        barr = build_b_array(make_321())
        assert [w_minus(barr, i).dim for i in (1, 2, 3)] == [3, 2, 1]

    def test_w_minus_of_phi_uses_leading_index(self):
        barr = build_b_array(make_310())
        assert w_minus_of_phi(barr, [1, 0, 0]).dim == 3
        assert w_minus_of_phi(barr, [0, 2, 0]).dim == 1
        with pytest.raises(ZeroCovector):
            w_minus_of_phi(barr, [0, 0, 0])


class TestBOfPhi:
    def test_recovers_single_block(self):
        barr = build_b_array(make_310(T2=2, R3=2, Q=5))
        m = b_of_phi(barr, [1, 0], [0, 0, 1])
        assert m == RatMatrix.from_rows(barr.block(1, 3))

    def test_linear_combination(self):
        barr = build_b_array(make_310(T2=1, R3=1))
        m = b_of_phi(barr, [1, 1], [0, 1, 1])
        b12, b13, b22, b23 = (RatMatrix.from_rows(barr.block(lam, i))
                              for lam, i in ((1, 2), (1, 3), (2, 2), (2, 3)))
        expect = b12 + b13 + b22 + b23
        assert m == expect

    def test_ignores_components_past_ell(self):
        barr = build_b_array(make_310(T2=1, R3=1))
        assert b_of_phi(barr, [1, 0, 7], [0, 0, 1]) == \
            b_of_phi(barr, [1, 0], [0, 0, 1])


class TestW1:
    def test_w1_of_u1_dim2(self):
        # phi = u^1: eigen-system for eigenvalue 1 in columns 1..ell
        barr = build_b_array(make_310(T2=1, R3=1))
        w1 = w1_of_phi(barr, [1, 0])
        assert w1.dim == 2
        assert w1.contains(e(3, 0))

    def test_w1_with_phi2_nonzero_dim1(self):
        barr = build_b_array(make_310(T2=1, R3=1))
        for phi in ([0, 1], [1, 1], [2, -3]):
            assert w1_of_phi(barr, phi).dim == 1

    def test_w1_inside_w_minus_phi(self):
        barr = build_b_array(make_310(T2=2, R3=2, P1=1, Q=1))
        for phi in ([1, 0], [1, 5], [0, 1]):
            w1 = w1_of_phi(barr, phi)
            assert w_minus_of_phi(barr, phi).contains_subspace(w1)

    def test_requires_endovolutive(self):
        chars = CartanCharacters((2, 1))
        bad = SymbolPresentation(3, chars, {(3, 2, 2, 1): Fraction(1)})
        with pytest.raises(NotEndovolutive):
            w1_of_phi(build_b_array(bad), [1, 0])

    def test_zero_phi_rejected(self):
        barr = build_b_array(make_310())
        with pytest.raises(ZeroCovector):
            w1_of_phi(barr, [0, 0])


class TestGenericW1Dim:
    def test_involutive_gives_s_ell(self):
        barr = build_b_array(make_310(T2=3, R3=3, Q=1))
        assert dim_w1_generic(barr) == 1  # s_2 = 1

    def test_zero_characters(self):
        chars = CartanCharacters((0, 0))
        barr = build_b_array(SymbolPresentation(2, chars, {}))
        assert dim_w1_generic(barr) == 0

    def test_321_zero_coefficients(self):
        barr = build_b_array(make_321())
        assert dim_w1_generic(barr) == 1  # s_3 = 1

    def test_refuses_fewer_than_one_trial(self):
        barrs = (build_b_array(make_310()),
                 build_b_array(SymbolPresentation(
                     2, CartanCharacters((0, 0)), {})))
        for barr in barrs:
            for trials in (0, -1):
                with pytest.raises(ValueError, match="trials"):
                    dim_w1_generic(barr, trials=trials)

    def test_requires_endovolutive(self):
        chars = CartanCharacters((2, 1))
        bad = SymbolPresentation(3, chars, {(3, 2, 2, 1): Fraction(1)})
        with pytest.raises(NotEndovolutive):
            dim_w1_generic(build_b_array(bad))
        with pytest.raises(NotEndovolutive):
            check_gnf_commutativity(build_b_array(bad), [1, 0])


class TestCommutativity:
    def test_holds_even_when_not_involutive(self):
        # the commutator obstruction lives on W^1(phi); for this family
        # it vanishes there regardless of T2 = R3
        barr = build_b_array(make_310(T2=1, R3=2))
        for phi in ([1, 0], [0, 1], [1, -1]):
            ok, witness = check_gnf_commutativity(barr, phi)
            assert ok, witness

    def test_extra_sample_vectors(self):
        # the coordinate basis of V decides every v (linearity): the
        # reference given extra vectors returns the same verdict
        barr = build_b_array(make_310(T2=2, R3=2, P2=1))
        got = check_gnf_commutativity(barr, [1, 1])
        assert got == (True, None)
        assert got == _old_check_gnf_commutativity(barr, [1, 1])
        assert got == _old_check_gnf_commutativity(
            barr, [1, 1], [[1, 2, 3], [0, 1, -1]])

    def test_random_involutive_samples(self):
        rng = random.Random(6)
        for _ in range(5):
            t2 = rng.randint(-3, 3)
            barr = build_b_array(make_310(
                T2=t2, R3=t2, P1=rng.randint(-2, 2), Q=rng.randint(-2, 2)))
            phi = [Fraction(rng.randint(-4, 4)) for _ in range(2)]
            if not any(phi):
                phi = [Fraction(1), Fraction(0)]
            ok, witness = check_gnf_commutativity(barr, phi)
            assert ok, witness


class TestRestrictionComparison:
    def test_involutive_310(self):
        tab = tableau_from_coefficients(make_310(T2=2, R3=2))
        assert check_theorem_a(tab)

    def test_full_column_range_trivial(self):
        tab = tableau_from_coefficients(make_321(Q4=1))
        # ell = n: the restriction is the tableau itself
        assert check_theorem_a(tab)

    def test_restriction_dims_match_oracle(self):
        from involutive import prolongation_dimension, restrict_to_U
        tab = tableau_from_coefficients(make_310(T2=1, R3=1, Q=2))
        rep = cartan_test(tab)
        assert rep.involutive
        cut = restrict_to_U(tab, rep.basis, rep.characters.ell)
        assert prolongation_dimension(tab)[0] == prolongation_dimension(cut)[0]


# Copies of the Guillemin layer as it was built from RatMatrix sums,
# scalings, identities and products; the library now reads the blocks
# directly, and must give the same matrices, bases and witnesses.

def _old_b_of_phi(barr, phi, v):
    out = RatMatrix.zeros(barr.r, barr.r)
    for lam in range(1, barr.ell + 1):
        c = Fraction(phi[lam - 1]) if lam <= len(phi) else Fraction(0)
        if c == 0:
            continue
        for i in range(1, barr.n + 1):
            vi = Fraction(v[i - 1]) if i <= len(v) else Fraction(0)
            if vi == 0:
                continue
            out = out + RatMatrix.from_rows(barr.block(lam, i)).scale(c * vi)
    return out


def _old_w1_of_phi(barr, phi):
    phi = [Fraction(x) for x in phi]
    kappa = next(k for k, c in enumerate(phi[:barr.ell], start=1) if c)
    s_k = barr.characters.s[kappa - 1]
    blocks = []
    for mu in range(1, barr.ell + 1):
        m = RatMatrix.zeros(barr.r, barr.r)
        for lam in range(1, barr.ell + 1):
            if phi[lam - 1] != 0:
                m = m + RatMatrix.from_rows(
                    barr.block(lam, mu)).scale(phi[lam - 1])
        if phi[mu - 1] != 0:
            m = m - RatMatrix.identity(barr.r).scale(phi[mu - 1])
        blocks.append(m)
    for a in range(s_k, barr.r):
        unit = [Fraction(0)] * barr.r
        unit[a] = Fraction(1)
        blocks.append(RatMatrix.from_rows([unit]))
    return Subspace.from_vectors(barr.r, kernel_basis(vstack(blocks)))


def _old_dim_w1_generic(barr, seed=0, trials=16):
    if barr.ell == 0:
        return 0
    rng = random.Random(seed)
    dims = []
    for _ in range(trials):
        while True:
            phi = [Fraction(rng.randint(-9, 9)) for _ in range(barr.ell)]
            if any(phi):
                break
        dims.append(_old_w1_of_phi(barr, phi).dim)
    return max(set(dims), key=lambda d: (dims.count(d), -d))


def _old_contains(space, v):
    if not space.basis:
        return v.is_zero()
    m = RatMatrix.from_rows([list(b.entries()) for b in space.basis])
    return rank(vstack([m, v.transpose()])) == space.dim


def _old_check_gnf_commutativity(barr, phi, sample_vectors=()):
    w1 = _old_w1_of_phi(barr, phi)
    vs = [tuple(Fraction(x) for x in v) for v in sample_vectors]
    for i in range(barr.n):
        unit = [Fraction(0)] * barr.n
        unit[i] = Fraction(1)
        vs.append(tuple(unit))
    mats = [_old_b_of_phi(barr, phi, v) for v in vs]
    for v, m in zip(vs, mats):
        for z in w1.basis:
            if not _old_contains(w1, m @ z):
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


def _old_check_theorem_a(tab, seed=0, trials=32):
    report = cartan_test(tab, seed=seed, trials=trials)
    ell = report.characters.ell
    if ell == tab.n:
        return True
    restricted = restrict_to_U(tab, report.basis, ell)
    if prolongation_dimension(tab)[0] != prolongation_dimension(restricted)[0]:
        return False
    return cartan_test(restricted, seed=seed, trials=trials).involutive


# A "commutator" witness needs n >= ell + 2, since B(phi)(e_mu) acts on
# W^1(phi) as phi_mu for every mu <= ell; this one has phi = (1, 0, 0).
COMMUTATOR_EXAMPLE = SymbolPresentation(
    2, CartanCharacters((2, 0, 0)),
    {(1, 1, 2, 2): Fraction(1), (2, 1, 3, 1): Fraction(1)})


class TestSameAsMatrixArithmetic:
    corpus = endovolutive_corpus(13, 120) + [COMMUTATOR_EXAMPLE]

    @staticmethod
    def phis(barr, rng):
        out = [[1] + [0] * (barr.n - 1)]
        for _ in range(2):
            phi = [rng.randint(-3, 3) for _ in range(barr.n)]
            if any(phi[:barr.ell]):
                out.append(phi)
        return out

    def test_b_w1_and_generic_dims(self):
        rng = random.Random(1)
        for pres in self.corpus:
            barr = build_b_array(pres)
            for phi in self.phis(barr, rng):
                assert w1_of_phi(barr, phi).basis == \
                    _old_w1_of_phi(barr, phi).basis
                for v in ([rng.randint(-2, 2) for _ in range(barr.n)],
                          [Fraction(1, 2)] * barr.n, [0] * barr.n):
                    assert b_of_phi(barr, phi, v) == \
                        _old_b_of_phi(barr, phi, v)
            assert dim_w1_generic(barr, seed=3) == \
                _old_dim_w1_generic(barr, seed=3)

    def test_commutativity_results_and_witnesses(self):
        rng = random.Random(2)
        kinds = set()
        for pres in self.corpus:
            barr = build_b_array(pres)
            for phi in self.phis(barr, rng):
                sample = [[rng.randint(-2, 2) for _ in range(barr.n)]]
                got = check_gnf_commutativity(barr, phi)
                assert got == _old_check_gnf_commutativity(barr, phi)
                # linearity: an extra vector changes no verdict
                assert got[0] == \
                    _old_check_gnf_commutativity(barr, phi, sample)[0]
                kinds.add(got[1] and got[1]["kind"])
        assert kinds == {None, "not-endomorphism", "commutator"}

    def test_theorem_a(self):
        results = []
        for pres in self.corpus:
            tab = tableau_from_coefficients(pres)
            results.append(check_theorem_a(tab))
            assert results[-1] == _old_check_theorem_a(tab)
        assert True in results and False in results


class TestIntegerRowsOnRationalArrays:
    """The integer-row checks scale the blocks, phi, each v and the
    W^1(phi) basis by their denominators; on rational input they must
    still agree with the matrix arithmetic above."""
    corpus = endovolutive_corpus(19, 60, values=(
        0, 0, 1, -2, Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3),
        Fraction(-3, 2)))

    @staticmethod
    def rational(rng, n, lo=-3, hi=3):
        return [Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3)))
                for _ in range(n)]

    def test_corpus_has_denominators_and_wide_r(self):
        dens = {c.denominator for p in self.corpus
                for c in p.coefficients.values()}
        assert {2, 3} <= dens
        assert any(p.r > p.characters.s[0] for p in self.corpus)

    def test_generic_dims_and_w1_bases(self):
        rng = random.Random(4)
        for pres in self.corpus:
            barr = build_b_array(pres)
            for seed in (0, 5):
                assert dim_w1_generic(barr, seed=seed) == \
                    _old_dim_w1_generic(barr, seed=seed)
            phi = self.rational(rng, barr.n)
            if any(phi[:barr.ell]):
                assert w1_of_phi(barr, phi).basis == \
                    _old_w1_of_phi(barr, phi).basis

    def test_commutativity_results_and_witnesses(self):
        rng = random.Random(8)
        kinds = set()
        for pres in self.corpus:
            barr = build_b_array(pres)
            for _ in range(2):
                phi = self.rational(rng, barr.n)
                if not any(phi[:barr.ell]):
                    continue
                sample = [self.rational(rng, barr.n, -2, 2)]
                got = check_gnf_commutativity(barr, phi)
                assert got == _old_check_gnf_commutativity(barr, phi)
                # linearity: an extra vector changes no verdict
                assert got[0] == \
                    _old_check_gnf_commutativity(barr, phi, sample)[0]
                kinds.add(got[1] and got[1]["kind"])
        assert kinds == {None, "not-endomorphism", "commutator"}

    def test_sample_vector_keeps_its_denominators(self):
        # B(v) maps W^1(phi) into itself for this v, but not for the
        # vector of its numerators, (1, -1, -1, -1); the reference given
        # v first offends at the coordinate vector e_3, as the check does
        one = Fraction(1)
        pres = SymbolPresentation(2, CartanCharacters((2, 1, 0, 0)), {
            (2, 1, 2, 1): -one, (2, 1, 2, 2): 2 * one, (2, 1, 3, 1): one,
            (2, 1, 3, 2): -one, (1, 1, 4, 2): one, (2, 1, 4, 1): -one,
            (2, 1, 4, 2): 2 * one, (1, 2, 4, 1): one})
        barr = build_b_array(pres)
        phi = [-1, 0, -3, Fraction(-2, 3)]
        vs = [[1, Fraction(-1, 3), Fraction(-1, 2), -1]]
        got = check_gnf_commutativity(barr, phi)
        assert got == _old_check_gnf_commutativity(barr, phi)
        assert got == _old_check_gnf_commutativity(barr, phi, vs)
        assert got[1]["v"] == (0, 0, 1, 0)
