import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge.errors import ParameterError, SingularMatrixError
from qforge.linalg import (
    BlockLayout,
    RMatrix,
    WindowVector,
    block_compose,
    frac,
    invert,
    nullspace,
    op_norm_inf,
    rank,
    rref,
    solve_exact,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=9)


def dense(entries, row_lo=0, col_lo=0):
    return RMatrix.from_dense(entries, row_lo=row_lo, col_lo=col_lo)


class TestFrac:
    def test_accepts_ints_strings_fractions(self):
        assert frac(3) == 3
        assert frac("3/4") == Fraction(3, 4)
        assert frac(Fraction(-1, 2)) == Fraction(-1, 2)

    def test_rejects_floats(self):
        with pytest.raises(ParameterError):
            frac(0.5)


class TestWindowVector:
    def test_norms_and_support(self):
        v = WindowVector(2, 5, (1, "-3/2", 0))
        assert v.sup_norm() == Fraction(3, 2)
        assert v.l1_norm() == Fraction(5, 2)
        assert v.support() == {2, 3}
        assert v.value(7) == 0

    def test_add_extends_window(self):
        v = WindowVector(0, 2, (1, 2))
        w = WindowVector(1, 3, (5, 7))
        s = v.add(w)
        assert (s.lo, s.hi) == (0, 3)
        assert s.coords == (1, 7, 7)

    def test_unit_and_restrict(self):
        e = WindowVector.unit(3, 6, 4)
        assert e.coords == (0, 1, 0)
        assert e.restrict(4, 5).coords == (1,)

    @given(st.lists(rationals, min_size=1, max_size=6),
           st.lists(rationals, min_size=1, max_size=6))
    def test_dot_symmetric(self, a, b):
        n = min(len(a), len(b))
        v = WindowVector(0, len(a), tuple(a))
        w = WindowVector(0, len(b), tuple(b))
        assert v.dot(w) == w.dot(v) == sum(x * y for x, y in zip(a[:n], b[:n]))


class TestRMatrix:
    def test_apply_matches_dense(self):
        m = dense([[1, 2], [0, "1/3"]])
        v = WindowVector(0, 2, (3, -6))
        assert m.apply(v).coords == (-9, -2)

    def test_matmul_identity(self):
        m = dense([[2, 1], [5, 3]])
        assert m.matmul(RMatrix.identity(0, 2)).equals(m)
        assert RMatrix.identity(0, 2).matmul(m).equals(m)

    def test_from_columns_round_trip(self):
        cols = [WindowVector(1, 4, (1, 0, 2)), WindowVector(1, 4, (0, 5, 0))]
        m = RMatrix.from_columns(cols, col_lo=7)
        assert (m.col_lo, m.col_hi) == (7, 9)
        assert m.to_dense() == [[1, 0], [0, 5], [2, 0]]

    def test_window_mismatch_raises(self):
        with pytest.raises(ParameterError):
            dense([[1]]).matmul(dense([[1]], row_lo=3))

    @given(st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=2),
           st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=2),
           st.lists(rationals, min_size=2, max_size=2))
    def test_matmul_associates_with_apply(self, a, b, v):
        ma, mb = dense(a), dense(b)
        w = WindowVector(0, 2, tuple(v))
        assert ma.matmul(mb).apply(w).coords == ma.apply(mb.apply(w)).coords


class TestOpNormInf:
    def test_identity_is_one(self):
        assert op_norm_inf(RMatrix.identity(0, 3)) == 1

    def test_row_l1_example(self):
        assert op_norm_inf(dense([[1, -2], [0, 3]])) == 3

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4, max_size=4))
    @settings(max_examples=40)
    def test_matches_sign_vector_search(self, entries):
        # independent oracle: sup over the 2^4 extreme points of the cube
        m = dense(entries)
        best = max(
            max(abs(sum(r * s for r, s in zip(row, signs))) for row in entries)
            for signs in itertools.product((1, -1), repeat=4)
        )
        assert op_norm_inf(m) == best

    def test_submultiplicative(self):
        a = dense([[1, 2], ["1/2", -1]])
        b = dense([["2/3", 0], [4, 1]])
        assert op_norm_inf(a.matmul(b)) <= op_norm_inf(a) * op_norm_inf(b)


class TestInvert:
    def test_diagonal(self):
        inv = invert(dense([[2, 0], [0, "1/3"]]))
        assert inv.to_dense() == [[Fraction(1, 2), 0], [0, 3]]

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            invert(dense([[1, 2], [2, 4]]))

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=40)
    def test_product_is_identity(self, entries):
        m = dense(entries)
        try:
            inv = invert(m)
        except SingularMatrixError:
            assert rank(m.to_dense()) < 3
            return
        eye = RMatrix.identity(0, 3)
        assert m.matmul(inv).equals(eye)
        assert inv.matmul(m).equals(eye)

    def test_preserves_window(self):
        m = dense([[5]], row_lo=10, col_lo=10)
        assert invert(m).get(10, 10) == Fraction(1, 5)


class TestBlockCompose:
    def test_two_blocks(self):
        layout = BlockLayout((0, 2, 3))
        a = dense([[1, 2], [3, 4]])
        b = dense([[7]], row_lo=2, col_lo=2)
        m = block_compose([a, b], layout)
        assert m.to_dense() == [[1, 2, 0], [3, 4, 0], [0, 0, 7]]

    def test_window_mismatch(self):
        with pytest.raises(ParameterError):
            block_compose([dense([[1]])], BlockLayout((5, 6)))


class TestDenseHelpers:
    def test_rref_pivots(self):
        red, pivots = rref([[frac(0), frac(2)], [frac(1), frac(1)]])
        assert pivots == [0, 1]
        assert red[0][:2] == [1, 0]

    def test_rank(self):
        assert rank([[frac(1), frac(2)], [frac(2), frac(4)]]) == 1

    def test_nullspace_annihilates(self):
        rows = [[frac(1), frac(2), frac(3)]]
        for vec in nullspace(rows, 3):
            assert sum(a * b for a, b in zip(rows[0], vec)) == 0
        assert len(nullspace(rows, 3)) == 2

    def test_solve_exact(self):
        sol = solve_exact([[frac(2), frac(0)], [frac(0), frac(4)]], [frac(1), frac(1)])
        assert sol == [Fraction(1, 2), Fraction(1, 4)]
        assert solve_exact([[frac(1)], [frac(1)]], [frac(0), frac(1)]) is None
