"""B-arrays, the quadratic criterion, the oracle, and Cartan's test."""

import gc
import random
from fractions import Fraction

import pytest

from involutive import (
    BasisPair,
    CartanCharacters,
    RatMatrix,
    SymbolPresentation,
    Tableau,
    build_b_array,
    cartan_test,
    extract_symbol_coefficients,
    is_endovolutive,
    prolongation_dimension,
    quadratic_criterion,
    reduced_conditions,
    search_endovolutive_basis,
    tableau_from_coefficients,
)
from involutive import involutivity as involutivity_mod
from involutive import tableau as tableau_mod
from involutive.involutivity import (VARIANTS, NotEndovolutive,
                                     symbolic_b_array)
from involutive.linalg import invert, kernel_basis, row_basis, rref
from involutive.moduli import coefficient_variables, presentation_from_assignment
from involutive.tableau import NonGenericBasis, _reduce, find_generic_basis
from conftest import (
    fraction_extraction,
    fraction_reduction,
    make_310,
    make_321,
    random_invertible_rng,
    random_matrix,
    random_unit_upper_triangular,
    spanning_variants,
    staircase_corpus,
)


def random_staircase(rng, n_max=4, r_max=5):
    n = rng.randint(1, n_max)
    r = rng.randint(1, r_max)
    s = sorted((rng.randint(0, r) for _ in range(n)), reverse=True)
    return CartanCharacters(tuple(s)), r


def random_presentation(rng, chars, r, bound=2):
    asg = {v: Fraction(rng.randint(-bound, bound))
           for v in coefficient_variables(chars)}
    return presentation_from_assignment(chars, asg, r=r)


class TestBArray:
    def test_310_blocks(self):
        barr = build_b_array(make_310(P1=5, P2=6, P3=7, Q=9, T2=1, T3=2, R3=3))
        assert barr.ell == 2 and barr.n == 3 and barr.r == 3
        assert RatMatrix.from_rows(barr.block(1, 1)) == RatMatrix.identity(3)
        assert RatMatrix.from_rows(barr.block(1, 2)) == RatMatrix.from_rows(
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        assert RatMatrix.from_rows(barr.block(1, 3)) == RatMatrix.from_rows(
            [[5, 6, 7], [0, 1, 2], [0, 0, 3]])
        assert RatMatrix.from_rows(barr.block(2, 2)) == RatMatrix.from_rows(
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert RatMatrix.from_rows(barr.block(2, 3)) == RatMatrix.from_rows(
            [[9, 0, 0], [0, 0, 0], [0, 0, 0]])

    def test_321_blocks(self):
        barr = build_b_array(make_321(P1=1, P2=2, P3=3, Q4=4, Q5=5,
                                      R1=6, R2=7, R3=8, T1=9, T2=10, T3=11))
        assert RatMatrix.from_rows(barr.block(1, 2)) == RatMatrix.from_rows(
            [[0, 0, 0], [0, 0, 0], [1, 2, 3]])
        assert RatMatrix.from_rows(barr.block(1, 3)) == RatMatrix.from_rows(
            [[0, 0, 0], [9, 10, 11], [6, 7, 8]])
        assert RatMatrix.from_rows(barr.block(2, 2)) == RatMatrix.from_rows(
            [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert RatMatrix.from_rows(barr.block(2, 3)) == RatMatrix.from_rows(
            [[0, 0, 0], [4, 5, 0], [0, 0, 0]])
        assert RatMatrix.from_rows(barr.block(3, 3)) == RatMatrix.from_rows(
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert barr.is_endovolutive()

    @pytest.mark.parametrize("s", [(3, 1, 0), (2, 2, 1, 1), (3, 2, 1)])
    def test_symbolic_array_is_endovolutive(self, s):
        assert symbolic_b_array(CartanCharacters(s)).is_endovolutive()

    def test_entry_past_s_lam_not_endovolutive(self):
        chars = CartanCharacters((2, 1))
        bad = SymbolPresentation(3, chars, {(3, 2, 2, 1): Fraction(1)})
        assert not build_b_array(bad).is_endovolutive()

    def test_endovolutive_coefficient_check(self):
        ok, offender = is_endovolutive(make_310())
        assert ok and offender is None
        chars = CartanCharacters((2, 1))
        bad = SymbolPresentation(3, chars, {(3, 2, 2, 1): Fraction(1)})
        ok, offender = is_endovolutive(bad)
        assert not ok and offender == (3, 2, 2, 1)


class TestQuadraticCriterion:
    def test_310_condition_is_t2_minus_r3(self):
        for T2, R3 in [(1, 1), (2, 2), (1, 2), (-3, 5)]:
            barr = build_b_array(make_310(P1=4, Q=-2, T2=T2, R3=R3, T3=6))
            viol = quadratic_criterion(barr)
            if T2 == R3:
                assert viol == []
            else:
                assert len(viol) == 1
                v = viol[0]
                assert (v.lam, v.mu, v.i, v.j, v.a, v.b) == (1, 1, 2, 3, 2, 3)
                assert v.value == Fraction(R3 - T2)

    def test_zero_coefficients_pass(self):
        barr = build_b_array(make_321())
        assert quadratic_criterion(barr) == []

    def test_requires_endovolutive(self):
        chars = CartanCharacters((2, 1))
        bad = SymbolPresentation(3, chars, {(3, 2, 2, 1): Fraction(1)})
        with pytest.raises(NotEndovolutive):
            quadratic_criterion(build_b_array(bad))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            quadratic_criterion(build_b_array(make_310()), "other")

    def test_variants_same_verdict_on_examples(self):
        for kwargs in ({}, {"T2": 1, "R3": 2}, {"P1": 3, "Q": 2}):
            barr = build_b_array(make_310(**kwargs))
            t = quadratic_criterion(barr, "theorem")
            p = quadratic_criterion(barr, "proof")
            assert bool(t) == bool(p)

    def test_reduced_conditions_leave_no_garbage(self):
        barr = build_b_array(make_321(P1=2, Q4=1, R1=1, T2=3))
        gc.collect()
        gc.disable()
        try:
            assert reduced_conditions(barr)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_reduced_conditions_leading_term(self):
        # With a single dependent column pair the coefficient is exactly
        # the commutator B^lam_i B^mu_j - B^lam_j B^mu_i.
        barr = build_b_array(make_310(T2=2, R3=5))
        conds = reduced_conditions(barr)
        b12 = RatMatrix.from_rows(barr.block(1, 2))
        b13 = RatMatrix.from_rows(barr.block(1, 3))
        comm = b12 @ b13 - b13 @ b12
        mat = conds[(1, 1, 2, 3)]
        s2 = barr.characters.s[1]
        for a in range(s2, barr.r):
            for b in range(barr.r):
                assert mat[a][b] == comm[a, b]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_compiled_matches_nested_fraction_reference(self, variant):
        # The criterion evaluates the compiled symbolic conditions; the
        # reference runs the same recursion on nested Fraction blocks.
        rng = random.Random(53)
        presentations = [report.presentation for report in
                         map(cartan_test, staircase_corpus(31, 40))
                         if report.presentation is not None]
        for _ in range(40):
            chars, r = random_staircase(rng)
            asg = {v: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                   for v in coefficient_variables(chars)}
            presentations.append(presentation_from_assignment(chars, asg, r))
        assert any(p.r > p.characters.s[0] for p in presentations)
        flagged = 0
        for pres in presentations:
            conds = reduced_conditions(build_b_array(pres))
            want = [(key + (a, b), v) for key, mat in sorted(conds.items())
                    if variant == "proof" or key[1] < key[3]
                    for a, row in enumerate(mat, start=1)
                    for b, v in enumerate(row, start=1) if v]
            got = quadratic_criterion(build_b_array(pres), variant)
            assert [((v.lam, v.mu, v.i, v.j, v.a, v.b), v.value)
                    for v in got] == want
            assert all(type(v.value) is Fraction for v in got)
            flagged += bool(got)
        assert 0 < flagged < len(presentations)


    @pytest.mark.parametrize("variant", VARIANTS)
    def test_violations_come_in_key_order(self, variant):
        # The compile keeps symbolic_conditions' order (lam, i, j, mu, a,
        # b); the criterion sorts only its violations, by their key.
        rng = random.Random(71)
        reordered = 0
        for _ in range(80):
            chars, r = random_staircase(rng)
            got = [(v.lam, v.mu, v.i, v.j, v.a, v.b) for v in
                   quadratic_criterion(build_b_array(random_presentation(
                       rng, chars, r)), variant)]
            assert got == sorted(set(got))
            _, conditions = involutivity_mod._compiled_conditions(chars.s,
                                                                  variant)
            compiled = [key for key, _ in conditions if key in set(got)]
            reordered += compiled != got
        assert reordered


class TestProlongationOracle:
    def test_full_tableau(self):
        tab = Tableau.full(2, 3)
        dim_a1, _ = prolongation_dimension(tab)
        assert dim_a1 == 2 * (1 + 2 + 3)

    def test_zero_tableau(self):
        dim_a1, h2 = prolongation_dimension(Tableau.zero(2, 3))
        assert dim_a1 == 0 and h2 == 2 * 3

    def test_310_dimensions(self):
        assert prolongation_dimension(
            tableau_from_coefficients(make_310(T2=1, R3=1)))[0] == 5
        assert prolongation_dimension(
            tableau_from_coefficients(make_310(T2=1, R3=2)))[0] == 4

    def test_scalar_tableaux_always_involutive(self):
        # r = 1: the prolongation is the symmetric square of the span
        rng = random.Random(4)
        for _ in range(10):
            n = rng.randint(1, 4)
            chars = CartanCharacters(
                tuple(sorted((rng.randint(0, 1) for _ in range(n)),
                             reverse=True)))
            pres = random_presentation(rng, chars, 1)
            tab = tableau_from_coefficients(pres)
            dim_a1, _ = prolongation_dimension(tab)
            assert dim_a1 == chars.cartan_bound


def _fraction_prolongation_dimension(tab):
    """``prolongation_dimension`` from the prolonged-symbol matrix built
    in ``Fraction`` entries on the ``row_basis`` of the stacked span."""
    r, n = tab.r, tab.n
    elems = row_basis(tab.stacked())
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows, cols = len(pairs) * r, len(elems) * n
    entries = [[Fraction(0)] * cols for _ in range(rows)]
    for p, e in enumerate(elems):
        flat = e.entries()  # column-major: (a, i) at i*r + a
        for k in range(n):
            for idx, (i, j) in enumerate(pairs):
                for a in range(r):
                    val = Fraction(0)
                    if k == j:
                        val += flat[i * r + a]
                    if k == i:
                        val -= flat[j * r + a]
                    entries[idx * r + a][p * n + k] = val
    rk = _rref_rank(RatMatrix(rows, cols, [e for row in entries for e in row]))
    return cols - rk, rows - rk


class TestIntegerProlongation:
    @pytest.mark.parametrize("scramble", [None, "rows", "random"])
    def test_matches_fraction_prolongation(self, scramble):
        for k, tab in enumerate(staircase_corpus(25, 16, scramble)):
            for t in spanning_variants(tab, k):
                assert (prolongation_dimension(t)
                        == _fraction_prolongation_dimension(t))

    @pytest.mark.parametrize("tab", [
        Tableau.zero(2, 3),
        Tableau(3, 2, [RatMatrix.zeros(3, 2)]),
        Tableau.zero(3, 1),
        Tableau.full(3, 1),
        Tableau(2, 1, [RatMatrix.from_rows([[Fraction(1, 3)], [2]]),
                       RatMatrix.from_rows([[1], [6]])]),
        Tableau.full(2, 3),
    ])
    def test_edge_cases(self, tab):
        # n = 1 (no wedge pairs) and dim A = 0 (no columns)
        assert (prolongation_dimension(tab)
                == _fraction_prolongation_dimension(tab))


def _rref_rank(m):
    return len(rref(m)[1])


def _reference_endovolutive(tab, basis):
    """The search with its flag from kernels: for each lam, the elements
    vanishing on columns < lam are combinations from the kernel of the
    transposed column prefix, projected onto column lam; ``Fraction``
    products, reductions and extraction throughout."""
    bm, counts = fraction_reduction(tab, basis)
    chars = CartanCharacters(counts)
    if not chars.is_weakly_decreasing():
        return None
    s, r, ell = chars.s, tab.r, chars.ell
    if ell == 0:
        return basis, SymbolPresentation(r, chars, {})
    flag = []
    for lam in range(1, ell + 1):
        if lam == 1:
            combos = [RatMatrix.column([Fraction(int(i == p))
                                        for i in range(bm.rows)])
                      for p in range(bm.rows)]
        else:
            prefix = bm.select_columns(range((lam - 1) * r)).transpose()
            combos = kernel_basis(prefix)
        vecs = []
        for c in combos:
            elem = c.transpose() @ bm
            vecs.append([elem[0, (lam - 1) * r + a] for a in range(r)])
        if not vecs:
            return None
        wb = row_basis(RatMatrix.from_rows(vecs))
        if len(wb) != s[lam - 1]:
            return None
        flag.append(wb)
    for lam in range(1, ell):
        stacked = RatMatrix.from_rows(
            [list(v.entries()) for v in flag[lam - 1] + flag[lam]])
        if _rref_rank(stacked) != s[lam - 1]:
            return None
    adapted = []
    for lam in range(ell, 0, -1):
        for v in flag[lam - 1]:
            cand = adapted + [list(v.entries())]
            if _rref_rank(RatMatrix.from_rows(cand)) == len(cand):
                adapted = cand
    for a in range(r):
        if len(adapted) == r:
            break
        cand = adapted + [[Fraction(int(i == a)) for i in range(r)]]
        if _rref_rank(RatMatrix.from_rows(cand)) == len(cand):
            adapted = cand
    w_new = invert(RatMatrix.from_rows(adapted).transpose())
    bp = BasisPair(w_new @ basis.w_change, basis.v_change)
    try:
        pres = fraction_extraction(tab, bp)
    except NonGenericBasis:
        return None
    return (bp, pres) if is_endovolutive(pres)[0] else None


class TestEndovolutiveSearch:
    @pytest.mark.parametrize("scramble", [None, "rows", "random"])
    def test_flag_from_rref_matches_kernel_reference(self, scramble):
        outcomes = set()
        for k, tab in enumerate(staircase_corpus(11, 12, scramble)):
            basis, _ = find_generic_basis(tab, seed=k, trials=6)
            for bp in (BasisPair.identity(tab.r, tab.n), basis):
                found = search_endovolutive_basis(tab, bp)
                assert found == _reference_endovolutive(tab, bp)
                outcomes.add(found is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("scramble", [None, "rows", "random"])
    def test_other_spanning_sets_and_rational_pairs(self, scramble):
        # the same searches on fractional, redundant, zero-padded and
        # reordered spanning sets, and in pairs with fractional entries
        rng = random.Random(29)
        outcomes = set()
        for k, tab in enumerate(staircase_corpus(27, 10, scramble)):
            basis, _ = find_generic_basis(tab, seed=k, trials=4)
            rational = BasisPair(
                invert(random_invertible_rng(tab.r, rng, bound=3))
                @ basis.w_change, basis.v_change)
            for t in spanning_variants(tab, k):
                for bp in (basis, rational):
                    found = search_endovolutive_basis(t, bp)
                    assert found == _reference_endovolutive(t, bp)
                    outcomes.add(found is None)
        assert False in outcomes

    def test_one_exact_reduction_of_the_chosen_pair(self, monkeypatch):
        # the generic-basis search reduces nothing; the endovolutive
        # search reduces the chosen pair, then only the adapted basis
        calls = []

        def counting(tab, basis):
            calls.append(basis)
            return _reduce(tab, basis)

        monkeypatch.setattr(tableau_mod, "_reduce", counting)
        monkeypatch.setattr(involutivity_mod, "_reduce", counting)
        uncertified = 0
        for scramble in (None, "rows", "random"):
            for k, tab in enumerate(staircase_corpus(13, 20, scramble)):
                calls.clear()
                rep = cartan_test(tab, seed=k, trials=6)
                uncertified += not rep.characters_certified
                if rep.dim_A == 0:
                    assert calls == []
                elif rep.endo_basis is not None:
                    assert calls == [rep.basis, rep.endo_basis]
                else:
                    assert calls[0] == rep.basis and len(calls) <= 2
        assert uncertified

    def test_already_endovolutive(self):
        tab = tableau_from_coefficients(make_321(P1=2, Q4=1))
        found = search_endovolutive_basis(tab, BasisPair.identity(3, 3))
        assert found is not None
        bp, pres = found
        assert is_endovolutive(pres)[0]

    def test_recovers_after_row_permutation(self):
        tab = tableau_from_coefficients(make_321(Q4=1, Q5=2, T1=1, T2=1))
        perm = [1, 2, 0]
        rows = [[Fraction(int(perm[i] == j)) for j in range(3)]
                for i in range(3)]
        w = RatMatrix.from_rows(rows)
        scrambled = Tableau(3, 3, [w @ m for m in tab.span])
        basis, chars = find_generic_basis(scrambled, seed=1)
        found = search_endovolutive_basis(scrambled, basis)
        assert found is not None
        _, pres = found
        assert is_endovolutive(pres)[0]
        assert pres.characters.s == (3, 2, 1)

    def test_zero_tableau_trivial(self):
        tab = Tableau.zero(2, 2)
        found = search_endovolutive_basis(tab, BasisPair.identity(2, 2))
        assert found is not None


class TestCertifiedCharacters:
    @pytest.fixture(scope="class")
    def corpus(self):
        # the acceptance pool's recipe: n <= 4, r <= 5, coefficients in
        # [-2, 2], kept when the declared staircase basis is generic
        rng = random.Random(31)
        out = []
        for trial in range(1, 41):
            chars, r = random_staircase(rng)
            tab = tableau_from_coefficients(random_presentation(rng, chars, r))
            rep = cartan_test(tab, seed=trial)
            if rep.characters.s == chars.s:
                out.append((trial, tab, rep))
        return out

    def test_early_exit_keeps_full_search_characters(self, corpus):
        for trial, tab, rep in corpus:
            basis, chars = find_generic_basis(tab, seed=trial, trials=32)
            assert (rep.basis, rep.characters) == (basis, chars)

    def test_certified_exactly_when_involutive(self, corpus):
        verdicts = set()
        for _, _, rep in corpus:
            assert rep.characters_certified == rep.involutive
            verdicts.add(rep.involutive)
        assert verdicts == {True, False}


class TestCartanTest:
    def test_runs_the_public_stages(self, monkeypatch):
        # cartan_test calls the public searches through the names its
        # module holds, so a wrapper on those names sees every call
        calls = []

        def counted(name):
            fn = getattr(involutivity_mod, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("find_generic_basis", "search_endovolutive_basis"):
            monkeypatch.setattr(involutivity_mod, name, counted(name))
        rep = cartan_test(tableau_from_coefficients(make_310(T2=2, R3=2, Q=1)))
        assert rep.endo_basis is not None
        assert calls == ["find_generic_basis", "search_endovolutive_basis"]
        calls.clear()
        cartan_test(Tableau.zero(2, 3))
        assert calls == ["find_generic_basis"]

    def test_full_tableau_involutive(self):
        rep = cartan_test(Tableau.full(2, 3))
        assert rep.involutive and rep.cartan_bound == 12 and rep.dim_A1 == 12

    def test_310_report(self):
        rep = cartan_test(tableau_from_coefficients(make_310(T2=1, R3=2)))
        assert not rep.involutive
        assert rep.dim_A1 == 4 and rep.cartan_bound == 5
        assert rep.endovolutive and rep.violations
        assert rep.criterion_involutive() is False

    def test_report_consistency(self):
        rng = random.Random(13)
        for _ in range(8):
            chars, r = random_staircase(rng, n_max=3, r_max=3)
            pres = random_presentation(rng, chars, r)
            tab = tableau_from_coefficients(pres)
            rep = cartan_test(tab, seed=1)
            assert rep.dim_A1 <= rep.cartan_bound
            assert rep.involutive == (rep.dim_A1 == rep.cartan_bound)
            assert rep.dim_H1 == tab.r * tab.n - rep.dim_A
            assert (rep.dim_A * tab.n - rep.dim_A1 + rep.dim_H2
                    == tab.r * tab.n * (tab.n - 1) // 2)

    def test_n1_always_involutive(self):
        rng = random.Random(21)
        for _ in range(20):
            r = rng.randint(1, 4)
            d = rng.randint(0, r)
            span = []
            for _ in range(d):
                span.append(random_matrix(r, 1, rng))
            rep = cartan_test(Tableau(r, 1, span))
            assert rep.involutive

    def test_n2_endovolutive_always_involutive(self):
        rng = random.Random(22)
        for _ in range(20):
            chars, r = random_staircase(rng, n_max=2, r_max=4)
            if chars.n != 2:
                continue
            pres = random_presentation(rng, chars, r)
            tab = tableau_from_coefficients(pres)
            assert cartan_test(tab, seed=2).involutive
            assert quadratic_criterion(build_b_array(pres)) == []


class TestOracleCriterionAgreement:
    """Spot check; the full >= 500-sample study runs in the acceptance suite."""

    def test_agreement_on_generic_presentations(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            chars, r = random_staircase(rng)
            pres = random_presentation(rng, chars, r)
            tab = tableau_from_coefficients(pres)
            rep = cartan_test(tab, seed=checked)
            if rep.characters.s != chars.s:
                continue  # identity basis not generic: hypothesis fails
            checked += 1
            barr = build_b_array(pres)
            for variant in ("theorem", "proof"):
                empty = not quadratic_criterion(barr, variant)
                assert empty == rep.involutive, (chars.s, r, variant)

    def test_degenerate_family_no_false_violation(self):
        # two staircase columns, two fully dependent columns: always
        # involutive, yet the raw commutator of the dependent pair need
        # not vanish -- the reduced coefficient does
        chars = CartanCharacters((1, 1, 0, 0))
        pres = SymbolPresentation(1, chars, {
            (1, 1, 3, 1): Fraction(1), (1, 2, 4, 1): Fraction(1)})
        barr = build_b_array(pres)
        b13, b14, b23, b24 = (RatMatrix.from_rows(barr.block(lam, i))
                              for lam, i in ((1, 3), (1, 4), (2, 3), (2, 4)))
        raw = b13 @ b24 - b14 @ b23
        assert not raw.is_zero()
        assert quadratic_criterion(barr) == []
        tab = tableau_from_coefficients(pres)
        assert prolongation_dimension(tab)[0] == chars.cartan_bound


class TestBorelInvariance:
    def test_involutive_endovolutive_survive_borel(self):
        rng = random.Random(41)
        pres = make_310(T2=3, R3=3, P2=1, Q=-2)
        tab = tableau_from_coefficients(pres)
        for _ in range(5):
            q = random_unit_upper_triangular(3, rng)
            bp = BasisPair(RatMatrix.identity(3), q)
            re_pres = extract_symbol_coefficients(tab, bp)
            assert is_endovolutive(re_pres)[0]
            assert quadratic_criterion(build_b_array(re_pres)) == []
