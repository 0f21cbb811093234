"""Exact linear algebra: unit cases plus property tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from involutive.linalg import (
    InconsistentSystem,
    QQ,
    RatMatrix,
    SingularMatrix,
    format_rational,
    hstack,
    invert,
    kernel_basis,
    parse_rational,
    rank,
    row_basis,
    rref,
    solve,
    vstack,
)
from conftest import (
    random_invertible,
    random_invertible_rng,
    random_matrix,
    random_unit_upper_triangular,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=6)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(st.lists(rationals, min_size=rows * cols,
                         max_size=rows * cols))
    return RatMatrix(rows, cols, data)


def _fraction_rref(m):
    """Reference: Gauss-Jordan elimination in ``Fraction`` arithmetic,
    pivoting on the first nonzero entry in column order."""
    a = m.row_list()
    rows, cols = m.rows, m.cols
    pivots = []
    pr = 0
    for pc in range(cols):
        found = -1
        for i in range(pr, rows):
            if a[i][pc] != 0:
                found = i
                break
        if found < 0:
            continue
        a[pr], a[found] = a[found], a[pr]
        inv = 1 / a[pr][pc]
        a[pr] = [e * inv for e in a[pr]]
        for i in range(rows):
            if i != pr and a[i][pc] != 0:
                f = a[i][pc]
                a[i] = [e - f * p for e, p in zip(a[i], a[pr])]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    return RatMatrix.from_rows(a) if rows else m, pivots


class TestRatMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RatMatrix(2, 2, [1, 2, 3])

    def test_immutable(self):
        m = RatMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 3

    def test_matmul_known(self):
        a = RatMatrix.from_rows([[1, 2], [3, 4]])
        b = RatMatrix.from_rows([[0, 1], [1, 0]])
        assert a @ b == RatMatrix.from_rows([[2, 1], [4, 3]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            RatMatrix.identity(2) @ RatMatrix.identity(3)

    def test_transpose_involution(self):
        m = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m

    def test_stacking(self):
        a = RatMatrix.from_rows([[1, 2]])
        b = RatMatrix.from_rows([[3, 4]])
        assert vstack([a, b]) == RatMatrix.from_rows([[1, 2], [3, 4]])
        assert hstack([a, b]) == RatMatrix.from_rows([[1, 2, 3, 4]])

    def test_exact_fractions(self):
        m = RatMatrix.from_rows([[QQ(1, 3), QQ(1, 6)]])
        assert m[0, 0] + m[0, 1] == QQ(1, 2)


class TestRref:
    def test_rref_known(self):
        m = RatMatrix.from_rows([[2, 4], [1, 2]])
        red, pivots = rref(m)
        assert pivots == [0]
        assert red.row(0) == (Fraction(1), Fraction(2))

    def test_rref_matches_fraction_gauss_jordan(self):
        # rref eliminates over Z; the RREF is unique, so it must equal
        # the Fraction elimination's output exactly
        import random
        rng = random.Random(21)
        big = 2 ** 64
        cases = [RatMatrix(0, 3, []), RatMatrix(3, 0, []), RatMatrix(0, 0, []),
                 RatMatrix.zeros(2, 3),
                 RatMatrix.from_rows([[big + 1, Fraction(big, 3)],
                                      [Fraction(1, big), -big * big]]),
                 RatMatrix.from_rows([[Fraction(1, 3), -2], [Fraction(-1, 6), 1],
                                      [0, 0]])]
        for _ in range(300):
            rows, inner, cols = (rng.randint(1, 6), rng.randint(1, 6),
                                 rng.randint(1, 7))
            scale = rng.choice([1, big + 7])
            entries = [Fraction(rng.randint(-9, 9) * scale, rng.randint(1, 6))
                       for _ in range(rows * inner)]
            m = RatMatrix(rows, inner, entries) @ random_matrix(
                inner, cols, rng, bound=3)
            data = m.row_list()
            k = rng.randrange(rows)
            if rng.random() < 0.5:
                data.insert(k, list(data[rng.randrange(rows)]))   # duplicate
            else:
                data.insert(k, [0] * cols)                        # zero row
            cases.append(RatMatrix.from_rows(data))
        kinds = set()
        for m in cases:
            red, pivots = rref(m)
            assert (red, pivots) == _fraction_rref(m)
            assert (red.rows, red.cols) == (m.rows, m.cols)
            kinds.add((any(e.denominator > 1 for e in m.entries()),
                       any(abs(e.numerator) >= big for e in m.entries())))
        assert kinds == {(True, True), (True, False), (False, True),
                         (False, False)}

    def test_rank_identity(self):
        assert rank(RatMatrix.identity(4)) == 4

    def test_rank_zero(self):
        assert rank(RatMatrix.zeros(3, 5)) == 0

    def test_row_basis_spans(self):
        m = RatMatrix.from_rows([[1, 1], [2, 2], [0, 1]])
        basis = row_basis(m)
        assert len(basis) == 2


class TestSolveInvert:
    def test_solve_scalar(self):
        x = solve(RatMatrix.from_rows([[2]]), RatMatrix.column([4]))
        assert x == RatMatrix.column([2])

    def test_solve_inconsistent(self):
        m = RatMatrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(InconsistentSystem):
            solve(m, RatMatrix.column([1, 2]))

    def test_invert_identity(self):
        assert invert(RatMatrix.identity(3)) == RatMatrix.identity(3)

    def test_invert_singular(self):
        with pytest.raises(SingularMatrix):
            invert(RatMatrix.from_rows([[1, 2], [2, 4]]))


class TestRandom:
    def test_random_invertible_deterministic(self):
        a = random_invertible(3, seed=1, bound=5)
        b = random_invertible(3, seed=1, bound=5)
        assert a == b
        assert rank(a) == 3

    def test_random_invertible_draws_match_exact_rank(self):
        # reference: the draw loop deciding invertibility by an exact
        # rank over Fraction; bound 1 draws many singular matrices
        import random

        singular = []

        def reference(dim, rng, bound):
            while True:
                m = random_matrix(dim, dim, rng, bound)
                if len(_fraction_rref(m)[1]) == dim:
                    return m, rng.getstate()
                singular.append(m)

        for bound in (1, 2, 9):
            for dim in range(1, 6):
                for seed in range(40):
                    rng = random.Random(seed)
                    m = random_invertible_rng(dim, rng, bound)
                    ref, state = reference(dim, random.Random(seed), bound)
                    assert m == ref and rng.getstate() == state
        assert singular

    def test_pivot_columns_of_prefixes_are_the_exact_ones(self):
        import random
        from involutive import linalg
        rng = random.Random(4)
        for _ in range(200):
            rows, cols = rng.randint(1, 5), rng.randint(1, 7)
            m = random_matrix(rows, cols, rng, bound=3)
            ints = [[int(e) for e in row] for row in m.row_list()]
            exact = _fraction_rref(m)[1]
            assert linalg._pivot_columns([row[:] for row in ints]) == exact
            for k in range(cols + 1):
                prefix = [row[:k] for row in ints]
                assert (len(linalg._pivot_columns(prefix))
                        == len([c for c in exact if c < k]))

    def test_integer_rank_matches_rref(self):
        # rank eliminates over Z after scaling the matrix to integers;
        # _pivot_columns, fed rows scaled one by one, finds the same pivots
        import math
        import random
        from involutive import linalg
        rng = random.Random(12)
        cases = [RatMatrix(0, 3, []), RatMatrix(3, 0, []), RatMatrix(0, 0, [])]
        for _ in range(300):
            rows, inner, cols = (rng.randint(1, 6), rng.randint(1, 6),
                                 rng.randint(1, 7))
            entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(rows * inner)]
            m = RatMatrix(rows, inner, entries) @ random_matrix(
                inner, cols, rng, bound=3)
            zero = rng.randrange(rows + 1)    # == rows: no zero row
            if zero < rows:
                m = vstack([m.submatrix(range(zero), range(cols)),
                            RatMatrix.zeros(1, cols),
                            m.submatrix(range(zero, rows), range(cols))])
            cases.append(m)
        ranks = set()
        for m in cases:
            exact = _fraction_rref(m)[1]
            assert rank(m) == len(exact)
            ints = []
            for row in m.row_list():
                scale = math.lcm(*(e.denominator for e in row))
                ints.append([int(e * scale) for e in row])
            assert linalg._pivot_columns(ints) == exact
            ranks.add((len(exact) == min(m.rows, m.cols),
                       any(e.denominator > 1 for e in m.entries())))
        assert ranks == {(True, True), (True, False), (False, True),
                         (False, False)}

    @pytest.mark.parametrize("reduced", [False, True])
    def test_pivot_columns_edge_cases(self, reduced):
        from involutive import linalg
        cases = [
            [],                                    # no rows
            [[]],                                  # one row, no columns
            [[0, 0, 0], [0, 0, 0]],                # all zero
            [[0, 0, 2, 4], [0, 0, 1, 3], [0, 0, 0, 0]],  # zero columns first
            [[0, 0, 0], [0, 3, -6], [0, 0, 0], [0, 1, 5]],  # zero rows between
            [[0, 1], [2, 0], [4, 6]],              # pivot row below the first
            [[2, -4, 6], [1, -2, 3], [3, -6, 9]],  # rank one
            [[5, 1], [1, 7]],                      # nonsingular
        ]
        for rows in cases:
            cols = len(rows[0]) if rows else 0
            m = RatMatrix(len(rows), cols, [e for row in rows for e in row])
            red, exact = _fraction_rref(m)
            a = [row[:] for row in rows]
            pivots = linalg._pivot_columns(a, reduced=reduced)
            assert pivots == exact == rref(m)[1]
            if not reduced:
                continue
            # the first len(pivots) rows: the RREF, row by row times its
            # pivot entry
            for i, pc in enumerate(pivots):
                d = a[i][pc]
                assert d
                for j in range(cols):
                    assert Fraction(a[i][j], d) == red[i, j]

    def test_elimination_leaves_no_blocks_behind(self):
        # rows of 20 entries: CPython 3.11 never reuses a freed 20-tuple,
        # so a star call on such a row (gcd(*row), lcm(*row)) would keep
        # one block per call alive for the life of the process
        import gc
        import random
        import sys
        from involutive import linalg
        rng = random.Random(3)
        rows = [[rng.randint(-9, 9) for _ in range(20)] for _ in range(6)]
        values = [Fraction(1, rng.randint(1, 4)) for _ in range(20)]
        gc.collect()  # also empties the free lists
        before = sys.getallocatedblocks()
        for _ in range(50):
            linalg._pivot_columns([row[:] for row in rows], reduced=True)
            linalg._denominator_lcm(values)
        assert sys.getallocatedblocks() - before < 100

    def test_unit_upper_triangular(self):
        import random
        m = random_unit_upper_triangular(4, random.Random(7))
        for i in range(4):
            assert m[i, i] == 1
            for j in range(i):
                assert m[i, j] == 0


class TestParseFormat:
    @pytest.mark.parametrize("text,value", [
        ("3", Fraction(3)), ("-2/4", Fraction(-1, 2)), (" 7/3 ", Fraction(7, 3)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["", "1/0", "a/b", "1.5", "1/ "])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rank_nullity(self, m):
        assert rank(m) + len(kernel_basis(m)) == m.cols

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_kernel_vectors_annihilate(self, m):
        for v in kernel_basis(m):
            assert (m @ v).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(matrices(max_dim=4))
    def test_invert_left_inverse(self, m):
        if m.rows != m.cols:
            return
        try:
            inv = invert(m)
        except SingularMatrix:
            assert rank(m) < m.rows
            return
        assert inv @ m == RatMatrix.identity(m.rows)

    @settings(max_examples=40, deadline=None)
    @given(matrices())
    def test_rref_idempotent(self, m):
        red, pivots = rref(m)
        red2, pivots2 = rref(red)
        assert red == red2 and pivots == pivots2
