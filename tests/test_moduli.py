"""Coefficient variables, ideal export, sampling, and the census."""

import itertools
import random
from fractions import Fraction

import pytest

from involutive import (
    CartanCharacters,
    CensusTooLarge,
    CoefficientVariable,
    SymbolPresentation,
    coefficient_variables,
    enumerate_census,
    export_ideal,
    prolongation_dimension,
    sample_involutive,
    tableau_from_coefficients,
)
from involutive import involutivity as involutivity_mod
from involutive.involutivity import (
    VARIANTS,
    build_b_array,
    quadratic_criterion,
    reduced_conditions,
)
from involutive.moduli import (
    IdealGenerator,
    OracleDisagreement,
    presentation_from_assignment,
    symbolic_b_array,
    symbolic_conditions,
)

# Character sets at n = 3, 4 and 5; the nested corrections of the
# reduced conditions first appear at n = 4.
SYMBOLIC_SHAPES = [(3, 1, 0), (2, 2, 1), (3, 2, 1),
                   (2, 1, 1, 0), (2, 2, 1, 1), (3, 2, 1, 1), (2, 1, 1, 1),
                   (2, 2, 1, 1, 1), (3, 2, 1, 1, 0)]


def _value(poly, values):
    """A symbolic condition entry (0 or Poly) at a point."""
    if not poly:
        return 0
    total = Fraction(0)
    for mono, c in poly.terms.items():
        for k in mono:
            c *= values[k]
        total += c
    return total


def _oracle_involutive(pres):
    dim_a1, _ = prolongation_dimension(tableau_from_coefficients(pres))
    return dim_a1 == pres.characters.cartan_bound


# Reference copies of the per-assignment loops that built a B-array and
# ran the numeric criterion for every assignment.
def _reference_census(chars, coefficient_set, variant):
    variables = coefficient_variables(chars)
    pool = [Fraction(c) for c in coefficient_set]
    histogram = {}
    for values in itertools.product(pool, repeat=len(variables)):
        pres = presentation_from_assignment(chars, dict(zip(variables, values)))
        count = len(quadratic_criterion(build_b_array(pres), variant))
        histogram[count] = histogram.get(count, 0) + 1
    return histogram


def _reference_sample(chars, seed, count, coefficient_set, variant):
    rng = random.Random(seed)
    variables = coefficient_variables(chars)
    pool = [Fraction(c) for c in coefficient_set]
    kept = []
    for _ in range(count):
        assignment = {v: rng.choice(pool) for v in variables}
        pres = presentation_from_assignment(chars, assignment)
        if quadratic_criterion(build_b_array(pres), variant):
            continue
        if not _oracle_involutive(pres):
            raise OracleDisagreement("reference")
        kept.append(pres)
    return kept


class TestVariables:
    def test_310_slot_count(self):
        vs = coefficient_variables(CartanCharacters((3, 1, 0)))
        assert len(vs) == 16

    def test_111_has_no_slots(self):
        assert coefficient_variables(CartanCharacters((1, 1, 1))) == []

    def test_names_are_stable(self):
        v = CoefficientVariable(2, 1, 3, 1)
        assert v.name() == "B[2,1,3,1]"
        assert v.key == (2, 1, 3, 1)

    def test_requires_staircase(self):
        with pytest.raises(ValueError):
            coefficient_variables(CartanCharacters((1, 2)))


class TestExportIdeal:
    def test_310_generator_count(self):
        gens = export_ideal(CartanCharacters((3, 1, 0)))
        assert len(gens) == 8

    def test_111_ideal_trivial(self):
        assert export_ideal(CartanCharacters((1, 1, 1))) == []

    def test_deterministic(self):
        chars = CartanCharacters((3, 1, 0))
        a = [g.to_text() for g in export_ideal(chars)]
        b = [g.to_text() for g in export_ideal(chars)]
        assert a == b

    def test_degree_at_most_two(self):
        for chars in (CartanCharacters((3, 1, 0)),
                      CartanCharacters((2, 2, 1)),
                      CartanCharacters((2, 1, 1, 0))):
            for gen in export_ideal(chars):
                assert all(len(mono) <= 2 for mono, _ in gen.terms)

    def test_text_round_trip_shape(self):
        gens = export_ideal(CartanCharacters((3, 1, 0)))
        for g in gens:
            text = g.to_text()
            assert text and "B[" in text

    def test_specialize_matches_criterion_n3(self):
        # for n <= 3 the literal per-pair expansion and the reduced
        # criterion agree, so vanishing of the ideal at a point must
        # match the criterion verdict exactly
        chars = CartanCharacters((3, 1, 0))
        gens = export_ideal(chars)
        variables = coefficient_variables(chars)
        rng = random.Random(7)
        for _ in range(30):
            asg = {v: Fraction(rng.randint(-2, 2)) for v in variables}
            on_variety = all(g.specialize(asg) == 0 for g in gens)
            pres = presentation_from_assignment(chars, asg)
            empty = not quadratic_criterion(build_b_array(pres))
            assert on_variety == empty

    def test_2211_vanishes_at_certified_points(self):
        # the leading commutators alone miss the nested corrections and
        # put some of these points off the variety
        chars = CartanCharacters((2, 2, 1, 1))
        gens = export_ideal(chars)
        variables = coefficient_variables(chars)
        rng = random.Random(7)
        points = 0
        while points < 5:
            asg = {v: Fraction(rng.choice((-1, 0, 1))) for v in variables}
            if _oracle_involutive(presentation_from_assignment(chars, asg)):
                points += 1
                assert all(g.specialize(asg) == 0 for g in gens)

    def test_3211_reaches_degree_three(self):
        gens = export_ideal(CartanCharacters((3, 2, 1, 1)))
        assert max(len(mono) for g in gens for mono, _ in g.terms) == 3

    def test_n3_conditions_are_commutators(self):
        # up to n = 3 there is no nested correction: each entry is that
        # of B^lam_i B^mu_j - B^lam_j B^mu_i on a row a > s_i
        def terms(p):
            return p.terms if p else {}

        for s in ((3, 1, 0), (2, 2, 1), (3, 2, 1), (2, 1, 1)):
            chars = CartanCharacters(s)
            barr = symbolic_b_array(chars)
            r, n, ell = barr.r, chars.n, chars.ell
            zero = [[0] * r for _ in range(r)]

            def blk(lam, i):
                return barr.block(lam, i) if lam <= i else zero

            def product(x, y, a, b):
                return sum(x[a][c] * y[c][b] for c in range(r)
                           if x[a][c] and y[c][b])

            entries = dict(symbolic_conditions(chars, "proof"))
            expected = {}
            for lam in range(1, ell + 1):
                for i in range(lam + 1, n + 1):
                    for j in range(i + 1, n + 1):
                        for mu in range(lam, min(ell, j) + 1):
                            for a in range(s[i - 1], r):
                                for b in range(r):
                                    comm = (product(blk(lam, i), blk(mu, j),
                                                    a, b)
                                            + -product(blk(lam, j),
                                                       blk(mu, i), a, b))
                                    if comm:
                                        expected[(lam, mu, i, j,
                                                  a + 1, b + 1)] = comm
            assert ({k: terms(p) for k, p in entries.items()}
                    == {k: terms(p) for k, p in expected.items()})

    def test_empty_polynomial_prints_zero(self):
        assert IdealGenerator(()).to_text() == "0"


class TestSymbolicConditions:
    @pytest.mark.parametrize("s", SYMBOLIC_SHAPES)
    def test_match_numeric_conditions(self, s):
        chars = CartanCharacters(s)
        variables = coefficient_variables(chars)
        symbolic = reduced_conditions(symbolic_b_array(chars))
        rng = random.Random(sum(s) * 31 + len(s))
        for _ in range(8):
            values = [Fraction(rng.randint(-2, 2)) for _ in variables]
            pres = presentation_from_assignment(
                chars, dict(zip(variables, values)))
            numeric = reduced_conditions(build_b_array(pres))
            r = pres.r
            for key in set(symbolic) | set(numeric):
                for a in range(r):
                    for b in range(r):
                        want = numeric[key][a][b] if key in numeric else 0
                        got = (_value(symbolic[key][a][b], values)
                               if key in symbolic else 0)
                        assert got == want, (key, a, b)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("s", SYMBOLIC_SHAPES)
    def test_match_quadratic_criterion(self, s, variant):
        chars = CartanCharacters(s)
        variables = coefficient_variables(chars)
        entries = symbolic_conditions(chars, variant)
        rng = random.Random(len(variables) * 7 + len(s))
        for _ in range(8):
            values = [Fraction(rng.randint(-2, 2)) for _ in variables]
            pres = presentation_from_assignment(
                chars, dict(zip(variables, values)))
            want = {(v.lam, v.mu, v.i, v.j, v.a, v.b): v.value
                    for v in quadratic_criterion(build_b_array(pres),
                                                 variant)}
            got = {key: _value(p, values) for key, p in entries}
            assert {k: v for k, v in got.items() if v} == want

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            symbolic_conditions(CartanCharacters((3, 1, 0)), "other")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_caller_reads_the_criterions_compile(self, variant,
                                                       monkeypatch):
        compiled = involutivity_mod._compiled_conditions
        compile_ = involutivity_mod.symbolic_conditions
        calls = []

        def counting(chars, variant):
            calls.append((chars.s, variant))
            return compile_(chars, variant)

        monkeypatch.setattr(involutivity_mod, "symbolic_conditions", counting)
        compiled.cache_clear()
        chars = CartanCharacters((2, 1, 0))
        quadratic_criterion(build_b_array(SymbolPresentation(2, chars, {})),
                            variant)
        before = compiled.cache_info()
        assert export_ideal(chars, variant)
        sample_involutive(chars, seed=3, count=4, variant=variant)
        enumerate_census(chars, (0, 1), cap=200, variant=variant)
        after = compiled.cache_info()
        assert (after.hits, after.misses) == (before.hits + 3, before.misses)
        assert calls == [((2, 1, 0), variant)]


class TestSampling:
    def test_310_keeps_only_involutive(self):
        kept = sample_involutive(CartanCharacters((3, 1, 0)), seed=1,
                                 count=60, coefficient_set=(0, 1))
        assert kept
        for pres in kept:
            assert quadratic_criterion(build_b_array(pres)) == []

    def test_scalar_family_keeps_everything(self):
        chars = CartanCharacters((1, 1, 0, 0))
        kept = sample_involutive(chars, seed=3, count=40,
                                 coefficient_set=(-1, 0, 1))
        assert len(kept) == 40

    def test_deterministic(self):
        chars = CartanCharacters((3, 1, 0))
        a = sample_involutive(chars, seed=5, count=30, coefficient_set=(0, 1))
        b = sample_involutive(chars, seed=5, count=30, coefficient_set=(0, 1))
        assert [p.coefficients for p in a] == [p.coefficients for p in b]


    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("s, values, count, seed", [
        ((2, 2, 1), (-1, 0, 1), 11, 3),
        ((3, 1, 0), (0, 1), 30, 5),
        ((2, 1, 0, 0), (0, 0, 1, -1), 20, 2),
        ((2, 2, 0), (0, 1, 2), 30, 9),
        ((2, 1, 1, 0), (0, 1), 20, 4),
    ])
    def test_matches_reference_loop(self, s, values, count, seed, variant):
        chars = CartanCharacters(s)
        kept = sample_involutive(chars, seed=seed, count=count,
                                 coefficient_set=values, variant=variant)
        ref = _reference_sample(chars, seed, count, values, variant)
        assert [p.coefficients for p in kept] == [p.coefficients for p in ref]

    def test_oracle_disagreement_still_raised(self):
        # the declared basis of (3,2,1) is not generic for every draw
        chars = CartanCharacters((3, 2, 1))
        with pytest.raises(OracleDisagreement):
            _reference_sample(chars, 0, 50, (-1, 0, 1), "theorem")
        with pytest.raises(OracleDisagreement):
            sample_involutive(chars, seed=0, count=50)


class TestCensus:
    def test_n2_family_all_involutive(self):
        chars = CartanCharacters((2, 0))
        rec = enumerate_census(chars, (0, 1), cap=100)
        assert rec.variable_count == 4
        assert rec.total_assignments == 16
        assert rec.involutive_count == 16

    def test_111_single_entry(self):
        rec = enumerate_census(CartanCharacters((1, 1, 1)), (0, 1), cap=10)
        assert rec.total_assignments == 1 and rec.involutive_count == 1

    def test_repeated_value_refused(self):
        # a repeat would count each assignment once per copy
        for values in ((0, 0, 1), (1, Fraction(2, 2))):
            with pytest.raises(ValueError, match="repeats the value"):
                enumerate_census(CartanCharacters((2, 1, 0)), values, cap=100)

    def test_cap_enforced(self):
        with pytest.raises(CensusTooLarge):
            enumerate_census(CartanCharacters((3, 1, 0)), (0, 1), cap=1000)

    def test_small_310_slice_matches_oracle(self):
        # freeze most variables at zero by using a one-element pool on a
        # sub-family: the (2, 1, 0) census is small enough to exhaust
        chars = CartanCharacters((2, 1, 0))
        rec = enumerate_census(chars, (0, 1), cap=300)
        assert rec.total_assignments == 2 ** rec.variable_count
        assert sum(rec.violation_histogram.values()) == rec.total_assignments
        assert rec.violation_histogram.get(0, 0) == rec.involutive_count
        from involutive import prolongation_dimension, tableau_from_coefficients
        import itertools
        variables = coefficient_variables(chars)
        oracle_count = 0
        for values in itertools.product((Fraction(0), Fraction(1)),
                                        repeat=len(variables)):
            pres = presentation_from_assignment(
                chars, dict(zip(variables, values)))
            dim_a1, _ = prolongation_dimension(
                tableau_from_coefficients(pres))
            if dim_a1 == chars.cartan_bound:
                oracle_count += 1
        assert oracle_count == rec.involutive_count

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("s, values", [
        ((2, 2, 1), (-1, 0, 1)),
        ((2, 1, 1), (-1, 0, 1)),
        ((2, 1, 0), (0, 1)),
        ((1, 1, 0), (-2, -1, 0, 1, 2)),
        ((2, 2, 1, 1), (0, 1)),
        ((2, 1, 1, 1), (-1, 1)),
    ])
    def test_histogram_matches_reference_loop(self, s, values, variant):
        chars = CartanCharacters(s)
        rec = enumerate_census(chars, values, cap=10 ** 4, variant=variant)
        ref = _reference_census(chars, values, variant)
        assert rec.violation_histogram == ref
        assert rec.involutive_count == ref.get(0, 0)

    def test_fractional_coefficient_set(self):
        chars = CartanCharacters((2, 2, 1))
        values = (Fraction(-1, 2), 0, 3)
        rec = enumerate_census(chars, values, cap=100)
        assert rec.violation_histogram == _reference_census(
            chars, values, "theorem")
