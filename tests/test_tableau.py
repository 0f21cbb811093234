"""Tableaux, characters, staircase extraction, and basis handling."""

import itertools
import random
import threading
from fractions import Fraction

import pytest

from involutive import (
    BasisPair,
    CartanCharacters,
    RatMatrix,
    SymbolPresentation,
    Tableau,
    characters_in_basis,
    extract_symbol_coefficients,
    find_generic_basis,
    restrict_to_U,
    tableau_from_coefficients,
)
from involutive import cartan_test, prolongation_dimension, rank, rref
from involutive.document import document_from_dict, presentation_to_dict
from involutive.linalg import (_denominator_lcm, _integer_rows, invert,
                               parse_rational)
from involutive import linalg as linalg_mod
from involutive import tableau as tableau_mod
from involutive.tableau import (
    InvalidBasis,
    NonGenericBasis,
    NotInTableau,
    _staircase_rows,
    decompose_element,
)
from conftest import (
    endovolutive_corpus,
    fraction_extraction,
    make_310,
    random_invertible_rng,
    random_unit_upper_triangular,
    spanning_variants,
    staircase_corpus,
)


class TestCartanCharacters:
    def test_basic_stats(self):
        c = CartanCharacters((3, 1, 0))
        assert c.n == 3 and c.ell == 2 and c.dim == 4
        assert c.cartan_bound == 3 + 2 * 1

    def test_zero_characters(self):
        c = CartanCharacters((0, 0))
        assert c.ell == 0 and c.dim == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CartanCharacters((1, -1))

    def test_staircase_check(self):
        with pytest.raises(ValueError):
            CartanCharacters((1, 2)).require_staircase()
        CartanCharacters((2, 1)).require_staircase()


class TestSymbolPresentation:
    def test_rejects_bad_row(self):
        chars = CartanCharacters((2, 1))
        with pytest.raises(ValueError):
            # a = 1 is a staircase slot of column 2, not a free row
            SymbolPresentation(2, chars, {(1, 1, 2, 1): Fraction(1)})

    def test_rejects_bad_column(self):
        chars = CartanCharacters((2, 1))
        with pytest.raises(ValueError):
            SymbolPresentation(2, chars, {(2, 2, 2, 2): Fraction(1)})

    def test_drops_zeros(self):
        chars = CartanCharacters((2, 1))
        p = SymbolPresentation(2, chars, {(2, 1, 2, 1): Fraction(0)})
        assert p.coefficients == {}

    def test_generator_count(self):
        p = make_310()
        assert len(p.generator_slots()) == 4


class TestTableauBasics:
    def test_dimension_of_full(self):
        assert Tableau.full(2, 3).dim == 6

    def test_zero_tableau(self):
        assert Tableau.zero(3, 2).dim == 0

    def test_single_generator(self):
        chars = CartanCharacters((1, 0))
        p = SymbolPresentation(1, chars, {})
        tab = tableau_from_coefficients(p)
        assert tab.span == (RatMatrix.from_rows([[1, 0]]),)

    def test_contains(self):
        tab = tableau_from_coefficients(make_310())
        assert tab.contains(tab.span[0] + tab.span[1])
        probe = RatMatrix.zeros(3, 3).row_list()
        probe[0][2] = Fraction(1)
        assert not tab.contains(RatMatrix.from_rows(probe))

    def test_dim_equals_character_sum(self):
        p = make_310(P1=2, Q=5)
        tab = tableau_from_coefficients(p)
        assert tab.dim == p.characters.dim

    def test_rows_are_the_integer_spanning_matrices(self):
        tab = Tableau(1, 2, [RatMatrix.from_rows([[1, Fraction(1, 2)]]),
                             RatMatrix.from_rows([[Fraction(-2, 3), 0]])])
        assert tab.rows == ([[2, 1]], [[-2, 0]])
        with pytest.raises(AttributeError):
            tab.rows = ()
        for k, tab in enumerate(staircase_corpus(17, 12, "random")):
            tab = Tableau(tab.r, tab.n,
                          [m.scale(Fraction(j % 3 + 1, j % 4 + 2))
                           for j, m in enumerate(tab.span)])
            assert tab.rows == tuple(_integer_rows(m) for m in tab.span)
            before = [[line[:] for line in m] for m in tab.rows]
            first = cartan_test(tab, seed=k)
            second = cartan_test(tab, seed=k)
            assert tab.rows == tuple(before)
            assert first == second


def _divided_by_pivots(rows, cols):
    """The integer rows, each divided by its first nonzero entry."""
    return RatMatrix(len(rows), cols,
                     [Fraction(e, next(x for x in row if x))
                      for row in rows for e in row])


def _extraction_outcome(extract, tab, basis):
    """The presentation, or the message of the NonGenericBasis raised."""
    try:
        return extract(tab, basis)
    except NonGenericBasis as exc:
        return str(exc)


def _stored(tab):
    return tab.rows, tab.scales


def _old_stored(mats):
    """``rows`` and ``scales`` as the old constructor computed them, from
    ``RatMatrix`` spanning matrices."""
    return (tuple([_integer_rows(m) for m in mats]),
            tuple([_denominator_lcm(m.entries()) for m in mats]))


class TestConstructionPaths:
    """``Tableau(r, n, span)``, the document parser and
    ``tableau_from_coefficients`` store the same integer rows and scales
    as the old path through ``RatMatrix`` spanning matrices, and ``span``
    gives those matrices back exactly."""

    def test_spanning_matrices(self):
        for scramble in (None, "random", "rows"):
            for tab in staircase_corpus(31, 20, scramble):
                mats = [m.scale(Fraction(j % 3 + 1, j % 4 + 2))
                        for j, m in enumerate(tab.span)]
                built = Tableau(tab.r, tab.n, mats)
                assert _stored(built) == _old_stored(mats)
                assert built.span == tuple(mats)

    def test_presentations(self):
        values = (0, 1, -2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6))
        corpus = endovolutive_corpus(23, 60, values=values) + [make_310(
            P1=Fraction(1, 2), Q=Fraction(-1, 3), T2=Fraction(2, 3))]
        scales = set()
        for p in corpus:
            mats = [p.generator_matrix(lam, b)
                    for lam, b in p.generator_slots()]
            tab = tableau_from_coefficients(p)
            assert _stored(tab) == _stored(Tableau(p.r, p.n, mats))
            assert _stored(tab) == _old_stored(mats)
            assert tab.span == tuple(mats)
            scales.update(tab.scales)
        assert {2, 3, 6} <= scales

    def test_basis_document(self):
        data = {"r": 2, "n": 2, "presentation": "basis",
                "basis": [[["1", "1/2"], ["-1/2", "0"]],
                          [["0", "2/3"], ["1/6", "3"]],
                          [["4", "0"], ["0", "-7"]]]}
        mats = [RatMatrix.from_rows([[parse_rational(e) for e in row]
                                     for row in m]) for m in data["basis"]]
        tab = document_from_dict(data).tableau()
        assert _stored(tab) == _old_stored(mats)
        assert tab.scales == (2, 6, 1)
        assert tab.span == tuple(mats)

    def test_full(self):
        for r, n in ((1, 1), (2, 3), (3, 2)):
            span = []
            for a in range(r):
                for i in range(n):
                    e = RatMatrix.zeros(r, n).row_list()
                    e[a][i] = Fraction(1)
                    span.append(RatMatrix.from_rows(e))
            full = Tableau.full(r, n)
            assert _stored(full) == _stored(Tableau(r, n, span))
            assert full.span == tuple(span)

    def test_stored_form_is_read_only(self):
        tab = tableau_from_coefficients(make_310(P1=Fraction(1, 2)))
        for name, value in (("span", ()), ("rows", ()), ("scales", ()),
                            ("r", 4)):
            with pytest.raises(AttributeError):
                setattr(tab, name, value)
        assert tab.r == 3 and tab.scales[0] == 2

    def test_no_ratmatrix_on_the_input_paths(self, monkeypatch):
        docs = [{"r": 1, "n": 2, "presentation": "basis",
                 "basis": [[["1", "0"]], [["0", "1/2"]]]},
                presentation_to_dict(make_310(P1=Fraction(1, 2), Q=3))]
        presentations = endovolutive_corpus(5, 20, values=(
            0, 1, Fraction(1, 2), Fraction(-2, 3)))
        calls = []
        init = RatMatrix.__init__

        def counting(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(RatMatrix, "__init__", counting)
        tabs = [document_from_dict(d).tableau() for d in docs]
        tabs += [tableau_from_coefficients(p) for p in presentations]
        assert calls == []
        # the counter sees the two matrices that reading span builds
        assert len(tabs[0].span) == 2 and len(calls) == 2


class TestCharacters:
    def test_identity_basis_reads_staircase(self):
        tab = tableau_from_coefficients(make_310())
        chars = characters_in_basis(tab, BasisPair.identity(3, 3))
        assert chars.s == (3, 1, 0)

    def test_full_tableau_characters(self):
        tab = Tableau.full(2, 3)
        _, chars = find_generic_basis(tab)
        assert chars.s == (2, 2, 2)

    def test_generic_search_recovers_staircase(self):
        # scramble a staircase family by a non-trivial basis pair
        tab = tableau_from_coefficients(make_310(P2=3, T3=1))
        rng = random.Random(11)
        bp = BasisPair(random_invertible_rng(3, rng),
                       random_invertible_rng(3, rng))
        scrambled = Tableau(3, 3, [bp.apply(m) for m in tab.span])
        _, chars = find_generic_basis(scrambled, seed=3)
        assert chars.s == (3, 1, 0)

    @pytest.mark.parametrize("scramble", [None, "random"])
    def test_integer_reduce_matches_rref_of_stacked(self, scramble):
        # _reduce forms P pi Q in ints, each matrix scaled by the lcm of
        # its denominators; scaling rows leaves the RREF unchanged
        rng = random.Random(31)
        fractional = False
        for tab in staircase_corpus(19, 30, scramble):
            p = random_invertible_rng(tab.r, rng, bound=3)
            q = random_invertible_rng(tab.n, rng, bound=3)
            rational = BasisPair(invert(p), invert(q))
            fractional = fractional or any(
                e.denominator > 1 for m in (rational.w_change,
                                            rational.v_change)
                for e in m.entries())
            # and a spanning set with fractional entries
            scaled = Tableau(tab.r, tab.n, [m.scale(Fraction(k + 1, k + 3))
                                            for k, m in enumerate(tab.span)])
            for t, bp in itertools.product(
                    (tab, scaled),
                    (BasisPair.identity(tab.r, tab.n), BasisPair(p, q),
                     rational, BasisPair(p, rational.v_change))):
                red, pivots = rref(t.stacked(bp))
                counts = [0] * tab.n
                for c in pivots:
                    counts[c // tab.r] += 1
                expected = (red.submatrix(range(len(pivots)),
                                          range(tab.r * tab.n)),
                            tuple(counts))
                rows, chars = tableau_mod._reduce(t, bp)
                assert [row.index(next(e for e in row if e))
                        for row in rows] == pivots
                assert (_divided_by_pivots(rows, tab.r * tab.n),
                        chars) == expected
        assert fractional

    @pytest.mark.parametrize("scramble", [None, "rows", "random"])
    def test_identity_reduce_reads_the_kept_rref(self, scramble):
        # _reduce at the identity pair copies the RREF that the tableau
        # keeps for the prolongation oracle; it must equal a fresh
        # elimination, and nothing a caller does to the copy reaches it
        for k, tab in enumerate(staircase_corpus(23, 8, scramble)):
            for t in spanning_variants(tab, k) + [Tableau.zero(tab.r, tab.n)]:
                r, n = t.r, t.n
                ident = BasisPair.identity(r, n)
                expected = tableau_mod._reduce_rows(
                    r, t.rows, _integer_rows(ident.w_change),
                    _integer_rows(ident.v_change))
                twin = Tableau._from_rows(r, n, [m.row_list()
                                                 for m in t.span])
                assert twin == t and hash(twin) == hash(t)
                oracle = prolongation_dimension(t)
                # t's RREF is kept now, twin's is not yet
                assert twin == t and hash(twin) == hash(t)
                rows, chars = tableau_mod._reduce(t, ident)
                assert (rows, chars) == expected
                assert tableau_mod._reduce(twin, ident) == expected
                for row in rows:
                    row[:] = [e + 1 for e in row]
                rows.append([1] * (r * n))
                assert tableau_mod._reduce(t, ident) == expected
                assert prolongation_dimension(t) == oracle
                assert prolongation_dimension(twin) == oracle

    def test_characters_stable_under_more_trials(self):
        tab = tableau_from_coefficients(make_310(Q=7))
        _, c1 = find_generic_basis(tab, seed=0, trials=8)
        _, c2 = find_generic_basis(tab, seed=0, trials=40)
        assert c1.s == c2.s


class TestExtraction:
    def test_round_trip_from_coefficients(self):
        p = make_310(P1=1, P2=-2, Q=3, T2=5, T3=7, R3=-1)
        tab = tableau_from_coefficients(p)
        q = extract_symbol_coefficients(tab, BasisPair.identity(3, 3))
        assert q.coefficients == p.coefficients
        assert q.characters.s == p.characters.s

    def test_random_round_trip(self):
        rng = random.Random(2)
        chars = CartanCharacters((2, 2, 1))
        from involutive.moduli import coefficient_variables
        for _ in range(5):
            asg = {v.key: Fraction(rng.randint(-4, 4))
                   for v in coefficient_variables(chars)}
            p = SymbolPresentation(3, chars, asg)
            tab = tableau_from_coefficients(p)
            q = extract_symbol_coefficients(tab, BasisPair.identity(3, 3))
            assert q.coefficients == p.coefficients

    def test_reverse_composition_preserves_subspace(self):
        p = make_310(T2=2, R3=2, Q=1)
        tab = tableau_from_coefficients(p)
        q = extract_symbol_coefficients(tab, BasisPair.identity(3, 3))
        tab2 = tableau_from_coefficients(q)
        assert tab.dim == tab2.dim
        for m in tab2.span:
            assert tab.contains(m)

    @pytest.mark.parametrize("scramble", [None, "rows", "random"])
    def test_integer_extraction_matches_fraction_reference(self, scramble):
        # the RREF with the staircase columns first is the inverse of the
        # staircase block times the basis matrix; both refuse the same
        # bases, and the reference's check for dependence left of the
        # generator never fires (the integer extraction has none)
        rng = random.Random(23)
        seen = set()
        for k, tab in enumerate(staircase_corpus(21, 16, scramble)):
            basis, _ = find_generic_basis(tab, seed=k, trials=4)
            pairs = [BasisPair.identity(tab.r, tab.n), basis,
                     BasisPair(random_invertible_rng(tab.r, rng, bound=1),
                               random_invertible_rng(tab.n, rng, bound=1))]
            for t, bp in itertools.product(spanning_variants(tab, k), pairs):
                expected = _extraction_outcome(fraction_extraction, t, bp)
                assert _extraction_outcome(
                    extract_symbol_coefficients, t, bp) == expected
                seen.add(expected if isinstance(expected, str) else "ok")
        assert "ok" in seen
        assert "dependence on columns left of the generator" not in seen

    @pytest.mark.parametrize("tab, refusal", [
        (Tableau(1, 2, [RatMatrix.from_rows([[0, 1]])]),
         "characters (0, 1) not weakly decreasing"),
        (Tableau(2, 3, [RatMatrix.from_rows([[1, 0, 0], [0, 0, 0]]),
                        RatMatrix.from_rows([[0, 1, 0], [0, 0, 0]]),
                        RatMatrix.from_rows([[0, 0, 0], [0, 1, 0]])]),
         "characters (1, 2, 0) not weakly decreasing"),
        # A = span{w_2 (x) u^1}: its staircase slot is w_1
        (Tableau(2, 1, [RatMatrix.from_rows([[0], [1]])]),
         "staircase projection is not bijective"),
        # n = 1, with fractional entries and a redundant matrix
        (Tableau(3, 1, [RatMatrix.from_rows([[Fraction(1, 2)], [0], [3]]),
                        RatMatrix.from_rows([[0], [Fraction(2, 3)], [1]]),
                        RatMatrix.from_rows([[1], [Fraction(4, 3)], [8]])]),
         None),
        # dim A = 0, with and without zero spanning matrices
        (Tableau.zero(2, 3), None),
        (Tableau(3, 2, [RatMatrix.zeros(3, 2), RatMatrix.zeros(3, 2)]), None),
        (Tableau.full(2, 3), None),
    ])
    def test_integer_extraction_edge_cases(self, tab, refusal):
        bp = BasisPair.identity(tab.r, tab.n)
        expected = _extraction_outcome(fraction_extraction, tab, bp)
        assert (_extraction_outcome(extract_symbol_coefficients, tab, bp)
                == expected)
        assert (expected if isinstance(expected, str) else None) == refusal

    def test_non_generic_basis_raises(self):
        # A = span{u^2}: identity basis puts the generator in column 2
        tab = Tableau(1, 2, [RatMatrix.from_rows([[0, 1]])])
        with pytest.raises(NonGenericBasis):
            extract_symbol_coefficients(tab, BasisPair.identity(1, 2))


class TestDecompose:
    def test_generator_split(self):
        p = make_310(T2=4, R3=4)
        pi = (p.generator_matrix(1, 2).scale(3)
              + p.generator_matrix(2, 1).scale(-2))
        zs = decompose_element(p, pi)
        assert zs[0].entries() == (0, 3, 0)
        assert zs[1].entries() == (-2, 0, 0)

    def test_rejects_outsiders(self):
        p = make_310()
        probe = RatMatrix.zeros(3, 3).row_list()
        probe[2][2] = Fraction(1)
        with pytest.raises(NotInTableau):
            decompose_element(p, RatMatrix.from_rows(probe))


class TestRestriction:
    def test_truncates_columns(self):
        tab = tableau_from_coefficients(make_310())
        cut = restrict_to_U(tab, BasisPair.identity(3, 3), 2)
        assert cut.n == 2 and cut.r == 3
        assert cut.dim == 4

    def test_full_ell_is_identity(self):
        tab = tableau_from_coefficients(make_310())
        same = restrict_to_U(tab, BasisPair.identity(3, 3), 3)
        assert same.dim == tab.dim and same.n == tab.n


class TestBorelChanges:
    def test_borel_preserves_characters(self):
        tab = tableau_from_coefficients(make_310(P3=2, T3=-1))
        rng = random.Random(5)
        for _ in range(5):
            q = random_unit_upper_triangular(3, rng)
            chars = characters_in_basis(tab, BasisPair(
                RatMatrix.identity(3), q))
            assert chars.s == (3, 1, 0)


def _reference_staircase_generic(bm, s, r):
    """Level-by-level definition: for each k, the projection onto the
    first k columns and its staircase slots both have rank s_1+...+s_k."""
    total = 0
    for k in range(1, len(s) + 1):
        total += s[k - 1]
        prefix = list(range(k * r))
        stair = [(lam - 1) * r + b - 1
                 for lam in range(1, k + 1) for b in range(1, s[lam - 1] + 1)]
        if rank(bm.select_columns(prefix)) != total:
            return False
        if rank(bm.select_columns(stair)) != total:
            return False
    return True


def _reference_search(tab, seed, trials):
    """The search without early exit: every candidate drawn up front,
    characters and basis matrix from separate eliminations."""
    rng = random.Random(seed)
    candidates = [BasisPair.identity(tab.r, tab.n)]
    for _ in range(trials):
        p = random_invertible_rng(tab.r, rng)
        q = random_invertible_rng(tab.n, rng)
        candidates.append(BasisPair(p, q))
    best = None
    for bp in candidates:
        stacked = tab.stacked(bp)
        chars = characters_in_basis(tab, bp).s
        if best is not None and chars < best[0]:
            continue
        red, pivots = rref(stacked)
        bm = red.submatrix(range(len(pivots)), range(tab.r * tab.n))
        ok = _reference_staircase_generic(bm, chars, tab.r)
        if best is None or chars > best[0] or (ok and not best[1]):
            best = (chars, ok, bp)
    return best[2], best[0]


class TestGenericBasisSearch:
    def test_cartan_inequality_in_every_flag(self):
        # dim A^(1) <= s_1 + 2 s_2 + ... + n s_n for the identity flag and
        # for seeded random flags, involutive or not.
        rng = random.Random(17)
        seen = set()
        for tab in staircase_corpus(5, 30, "random"):
            dim_a1, _ = prolongation_dimension(tab)
            pairs = [BasisPair.identity(tab.r, tab.n)] + [
                BasisPair(random_invertible_rng(tab.r, rng, bound=2),
                          random_invertible_rng(tab.n, rng, bound=2))
                for _ in range(3)]
            for bp in pairs:
                bound = characters_in_basis(tab, bp).cartan_bound
                assert dim_a1 <= bound
            _, chars = find_generic_basis(tab, seed=1, trials=4)
            seen.add(dim_a1 == chars.cartan_bound)
        assert seen == {True, False}

    @pytest.mark.parametrize("scramble", [None, "rows", "random"])
    def test_w_change_keeps_the_characters(self, scramble):
        # the search ranks pi Q only: P acts inside each column
        rng = random.Random(9)
        for tab in staircase_corpus(9, 30, scramble):
            p = random_invertible_rng(tab.r, rng, bound=2)
            q = random_invertible_rng(tab.n, rng, bound=2)
            ident = RatMatrix.identity(tab.r)
            assert (characters_in_basis(tab, BasisPair(p, q))
                    == characters_in_basis(tab, BasisPair(ident, q)))

    def test_staircase_check_matches_level_definition(self):
        rng = random.Random(8)
        checked = set()
        for tab in staircase_corpus(6, 30):
            pairs = [BasisPair.identity(tab.r, tab.n),
                     BasisPair(RatMatrix.identity(tab.r),
                               random_unit_upper_triangular(tab.n, rng)),
                     BasisPair(random_invertible_rng(tab.r, rng, bound=1),
                               random_invertible_rng(tab.n, rng, bound=1))]
            for bp in pairs:
                red, pivots = rref(tab.stacked(bp))
                bm = red.submatrix(range(len(pivots)),
                                   range(tab.r * tab.n))
                s = characters_in_basis(tab, bp).s
                expected = _reference_staircase_generic(bm, s, tab.r)
                rows, _ = tableau_mod._reduce(tab, bp)
                ok = _staircase_rows(rows, s, tab.r) is not None
                assert ok == expected
                checked.add(expected)
        assert checked == {True, False}

    @pytest.mark.parametrize("scramble", [None, "rows", "random"])
    def test_same_pair_as_reference_search(self, scramble):
        for k, tab in enumerate(staircase_corpus(7, 12, scramble)):
            expected = _reference_search(tab, seed=k, trials=6)
            dim_a1, _ = prolongation_dimension(tab)
            for a1 in (None, dim_a1):
                bp, chars = find_generic_basis(tab, seed=k, trials=6,
                                               dim_a1=a1)
                assert (bp, chars.s) == expected

    def test_certified_candidate_stops_the_search(self, monkeypatch):
        tableau_mod._candidates.cache_clear()
        calls = []
        draw = linalg_mod._random_invertible_rows

        def counting(dim, rng, bound=9):
            calls.append(dim)
            return draw(dim, rng, bound)

        evaluated = []
        evaluator = tableau_mod._evaluator

        def recording(tab):
            evaluate = evaluator(tab)

            def counted(pair):
                evaluated.append(pair)
                return evaluate(pair)
            return counted

        monkeypatch.setattr(tableau_mod, "_random_invertible_rows", counting)
        monkeypatch.setattr(tableau_mod, "_evaluator", recording)
        tab = tableau_from_coefficients(make_310(T2=2, R3=2, Q=1))
        dim_a1, _ = prolongation_dimension(tab)
        _, chars = find_generic_basis(tab, dim_a1=dim_a1)
        # the pairs of (3, 3, seed 0, 32 trials) are drawn once per
        # process; the certified identity pair is the only one evaluated
        assert chars.s == (3, 1, 0) and len(calls) == 2 * 32
        assert evaluated == [tableau_mod._candidates(3, 3, 0, 32)[0]]
        evaluated.clear()
        find_generic_basis(tab)
        assert len(evaluated) == 1 + 32 and len(calls) == 2 * 32
        evaluated.clear()
        find_generic_basis(tab, dim_a1=dim_a1)
        assert len(evaluated) == 1 and len(calls) == 2 * 32

    def test_certified_exit_reduces_nothing_exactly(self, monkeypatch):
        tab = tableau_from_coefficients(make_310(T2=2, R3=2, Q=1))
        cases = [
            tab,
            # rows reversed: the identity flag is not staircase-generic,
            # so a later candidate is certified
            Tableau(3, 3, [RatMatrix.from_rows(m.row_list()[::-1])
                           for m in tab.span]),
            # a redundant spanning set: more matrices than dim A
            Tableau(3, 3, tab.span + (tab.span[0].scale(Fraction(-1, 2)),)),
        ]
        expected = [(prolongation_dimension(t)[0],
                     _reference_search(t, seed=0, trials=32)) for t in cases]
        assert expected[1][1][0] != BasisPair.identity(3, 3)
        pairs = [tableau_mod._basis_pair(c)
                 for c in tableau_mod._candidates(3, 3, 0, 32)]

        evaluated = []
        evaluator = tableau_mod._evaluator

        def recording(tab):
            evaluate = evaluator(tab)

            def counted(pair):
                evaluated.append(pair)
                return evaluate(pair)
            return counted

        monkeypatch.setattr(tableau_mod, "_evaluator", recording)
        stops = []
        for t, (dim_a1, ref) in zip(cases, expected):
            evaluated.clear()
            bp, chars = find_generic_basis(t, dim_a1=dim_a1)
            assert chars.cartan_bound == dim_a1
            assert (bp, chars.s) == ref
            # the search evaluates every candidate up to the reference
            # winner and none after it
            stops.append(pairs.index(ref[0]))
            assert len(evaluated) == stops[-1] + 1
        assert stops[0] == 0 and 0 < stops[1] < 32

    @pytest.mark.parametrize("scramble", [None, "rows", "random"])
    def test_pi_q_rows_are_the_stacked_rows_in_i_q(self, scramble):
        # row k of _pi_q is spanning matrix k (times its scale) in the
        # pair (I, Q), flattened column-major like ``stacked``
        for k, tab in enumerate(staircase_corpus(7, 40, scramble)):
            identity = [[int(i == j) for j in range(tab.r)]
                        for i in range(tab.r)]
            for _, q in tableau_mod._candidates(tab.r, tab.n, k, 3):
                stacked = tab.stacked(tableau_mod._basis_pair((identity, q)))
                flat = tableau_mod._pi_q(tab.rows, q)
                assert len(flat) == stacked.rows == len(tab.rows)
                for row, k_row, scale in zip(flat, stacked.row_list(),
                                             tab.scales):
                    assert row == [e * scale for e in k_row]
                    assert all(type(e) is int for e in row)

    @pytest.mark.parametrize("scramble", [None, "rows", "random"])
    def test_exact_evaluator_matches_the_definitions(self, scramble):
        # on every candidate the search draws: the characters in the
        # candidate's flag and the level-wise staircase definition
        seen = set()
        for k, tab in enumerate(staircase_corpus(7, 40, scramble)):
            evaluate = tableau_mod._evaluator(tab)
            for pair in tableau_mod._candidates(tab.r, tab.n, k, 6):
                bp = tableau_mod._basis_pair(pair)
                s = characters_in_basis(tab, bp).s
                red, pivots = rref(tab.stacked(bp))
                bm = red.submatrix(range(len(pivots)), range(tab.r * tab.n))
                ok = _reference_staircase_generic(bm, s, tab.r)
                chars, staircase = evaluate(pair)
                assert (chars, staircase()) == (s, ok)
                seen.add(ok)
        assert seen == {True, False}

    @pytest.mark.parametrize("r, n, seed", [(1, 2, 0), (3, 3, 5), (5, 2, 11),
                                            (2, 4, 3)])
    def test_cached_pairs_are_fresh_draws(self, r, n, seed):
        tableau_mod._candidates.cache_clear()
        rng = random.Random(seed)
        fresh = []
        for _ in range(8):
            p = linalg_mod._random_invertible_rows(r, rng)
            q = linalg_mod._random_invertible_rows(n, rng)
            fresh.append(tuple(tuple(map(tuple, m)) for m in (p, q)))
        # each trials count is its own key, a prefix of the same draws
        for trials in (3, 8, 5):
            pairs = list(tableau_mod._candidates(r, n, seed, trials))
            assert pairs[1:] == fresh[:trials]

    @pytest.mark.parametrize("scramble", [None, "rows", "random"])
    def test_warm_cache_finds_the_cold_result(self, scramble):
        # certified searches stop part way through the candidates
        corpus = [(tab, prolongation_dimension(tab)[0])
                  for tab in staircase_corpus(7, 40, scramble)]
        calls = [(tab, k % 3, trials, a1)
                 for k, (tab, dim_a1) in enumerate(corpus)
                 for trials in (3, 32, 6) for a1 in (None, dim_a1)]
        cold = []
        for tab, seed, trials, a1 in calls:
            tableau_mod._candidates.cache_clear()
            cold.append(find_generic_basis(tab, seed, trials, a1))
        tableau_mod._candidates.cache_clear()
        warm = [find_generic_basis(tab, seed, trials, a1)
                for tab, seed, trials, a1 in calls]
        assert warm == cold

    def test_cached_pairs_are_immutable(self):
        tableau_mod._candidates.cache_clear()
        _, pair = tableau_mod._candidates(2, 3, 0, 1)
        for m in pair:
            assert isinstance(m, tuple)
            assert all(isinstance(row, tuple) for row in m)
        with pytest.raises(TypeError):
            pair[0][0][0] = 0

    def test_candidate_cache_is_bounded(self):
        tableau_mod._candidates.cache_clear()
        assert tableau_mod._candidates.cache_info().maxsize == 32

    def test_concurrent_misses_get_the_fresh_draws(self):
        # the memo has no lock: threads that miss the same key at once
        # each draw from their own generator, so each gets the same
        # pairs as one sequential run
        rng = random.Random(5)
        draw = linalg_mod._random_invertible_rows
        fresh = tuple(tuple(tuple(map(tuple, draw(3, rng))) for _ in "PQ")
                      for _ in range(32))
        identity = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
        tableau_mod._candidates.cache_clear()
        barrier = threading.Barrier(4)
        got = [None] * 4

        def fetch(k):
            barrier.wait()
            got[k] = tableau_mod._candidates(3, 3, 5, 32)

        threads = [threading.Thread(target=fetch, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got == [((identity, identity),) + fresh] * 4

    def test_user_basis_pairs_are_validated(self):
        singular = RatMatrix.from_rows([[1, 2], [2, 4]])
        with pytest.raises(InvalidBasis):
            BasisPair(singular, RatMatrix.identity(2))
        with pytest.raises(InvalidBasis):
            BasisPair(RatMatrix.identity(2), RatMatrix.zeros(2, 3))
