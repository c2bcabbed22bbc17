import functools
import itertools
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracles
from dense_oracles import from_dense, rmatrix_add, rmatrix_scale, rmatrix_sub, to_dense
from qforge import linalg
from qforge.adf.families import FamilyGenerator, make_family
from qforge.config import RunConfig
from qforge.errors import ParameterError, SingularMatrixError
from qforge.forcing import paired_from_certsets, run_generic
from qforge.jsonio import canonical_dumps, rmatrix_from_json, rmatrix_to_json
from qforge.linalg import (
    RMatrix,
    WindowVector,
    frac,
    invert,
    nullspace,
    op_norm_inf,
    rank,
    ratio,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=9)


class TestFrac:
    def test_accepts_ints_strings_fractions(self):
        assert frac(3) == 3
        assert frac("3/4") == Fraction(3, 4)
        assert frac(Fraction(-1, 2)) == Fraction(-1, 2)

    def test_rejects_floats(self):
        with pytest.raises(ParameterError):
            frac(0.5)


def digit_runs(lo, hi):
    return st.builds(lambda d, n: d * n, st.sampled_from("0123456789"),
                     st.integers(lo, hi))


# numerals of every length around the 640 digits that ratio reads and the
# 4300 that int() reads by default, zero-padded ones, and zero
numerals = st.one_of(st.integers(0, 10 ** 12).map(str),
                     st.integers(0, 999).map(lambda n: "00" + str(n)),
                     digit_runs(1, 30), digit_runs(600, 700),
                     digit_runs(3990, 4400))
numeral_strings = st.builds(
    lambda sign, p, q: sign + p + ("" if q is None else "/" + q),
    st.sampled_from(["", "-", "+"]), numerals, st.none() | numerals)
odd_strings = st.sampled_from([
    "6/4", "-0", "007", "+3", "1_0", " 3/4 ", "1.5", "1e3", "1/0", "0/0",
    "3/-4", "-3/4", "", "abc", "-", "/", "1/", "/2", "1/2/3", "3\n",
    "\u0663", "1 /2", "--1", "-0/5"]) | st.text("0123456789-+/._e ", max_size=8)
anything = st.one_of(numeral_strings, odd_strings, st.integers(), st.booleans(),
                     st.floats(), st.fractions(), st.none(), st.just([1]))


def outcome(read, x):
    try:
        return read(x)
    except ParameterError as e:
        return "ParameterError: %s" % e


@settings(max_examples=500, deadline=None)
@given(anything)
def test_ratio_agrees_with_frac(x):
    def pair(x):
        p, q = ratio(x)
        assert type(p) is int and type(q) is int and q > 0
        return Fraction(p, q)
    assert outcome(pair, x) == outcome(frac, x)


# entries as a run file, a caller or an operation gives them: "p/q"
# strings, reduced or not, ints and Fractions, zeros among them
entries = st.one_of(
    st.builds(lambda p, q: "%d/%d" % (p, q), st.integers(-12, 12), st.integers(1, 12)),
    st.integers(-12, 12).map(str), st.integers(-12, 12), rationals)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 5), st.dictionaries(st.integers(0, 5), entries)))
def test_rows_read_as_the_frac_constructor_read_them(rows):
    assert RMatrix(0, 6, 0, 6, rows)._rows == dense_oracles.matrix_rows(rows)


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
        e = WindowVector.sparse(3, 6, {4: 1})
        assert e.coords == (0, 1, 0)
        assert e.restrict(4, 5).coords == (1,)

    @given(st.lists(rationals, min_size=1, max_size=6),
           st.lists(rationals, min_size=1, max_size=6))
    def test_dot_symmetric(self, a, b):
        n = min(len(a), len(b))
        v = WindowVector(0, len(a), tuple(a))
        w = WindowVector(0, len(b), tuple(b))
        assert dense_oracles.dot(v, w) == dense_oracles.dot(w, v) == sum(x * y for x, y in zip(a[:n], b[:n]))


class TestRMatrix:
    def test_matmul_identity(self):
        m = from_dense([[2, 1], [5, 3]])
        assert m.matmul(RMatrix.identity(0, 2)).equals(m)
        assert RMatrix.identity(0, 2).matmul(m).equals(m)

    def test_from_columns_round_trip(self):
        cols = [WindowVector(1, 4, (1, 0, 2)), WindowVector(1, 4, (0, 5, 0))]
        m = RMatrix.from_columns(cols)
        assert m.window == (1, 4, 0, 2)
        assert to_dense(m) == [[1, 0], [0, 5], [2, 0]]

    def test_window_mismatch_raises(self):
        with pytest.raises(ParameterError):
            from_dense([[1]]).matmul(from_dense([[1]], row_lo=3))

    @given(st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=2),
           st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=2),
           st.lists(rationals, min_size=2, max_size=2))
    def test_matmul_associates_with_apply(self, a, b, v):
        ma, mb = from_dense(a), from_dense(b)
        w = WindowVector(0, 2, tuple(v))
        apply = dense_oracles.matrix_apply
        assert apply(ma.matmul(mb), w) == apply(ma, apply(mb, w))


class TestOpNormInf:
    def test_identity_is_one(self):
        assert op_norm_inf(RMatrix.identity(0, 3)) == 1

    def test_row_l1_example(self):
        assert op_norm_inf(from_dense([[1, -2], [0, 3]])) == 3

    @given(st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=4, max_size=4))
    @settings(max_examples=40)
    def test_matches_sign_vector_search(self, entries):
        # independent oracle: sup over the 2^4 extreme points of the cube
        m = from_dense(entries)
        best = max(
            max(abs(sum(r * s for r, s in zip(row, signs))) for row in entries)
            for signs in itertools.product((1, -1), repeat=4)
        )
        assert op_norm_inf(m) == best

    def test_submultiplicative(self):
        a = from_dense([[1, 2], ["1/2", -1]])
        b = from_dense([["2/3", 0], [4, 1]])
        assert op_norm_inf(a.matmul(b)) <= op_norm_inf(a) * op_norm_inf(b)


class TestInvert:
    def test_diagonal(self):
        inv = invert(from_dense([[2, 0], [0, "1/3"]]))
        assert to_dense(inv) == [[Fraction(1, 2), 0], [0, 3]]

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            invert(from_dense([[1, 2], [2, 4]]))

    @given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=40)
    def test_product_is_identity(self, entries):
        m = from_dense(entries)
        try:
            inv = invert(m)
        except SingularMatrixError:
            assert rank(to_dense(m)) < 3
            return
        eye = RMatrix.identity(0, 3)
        assert m.matmul(inv).equals(eye)
        assert inv.matmul(m).equals(eye)
        # the integer-row predicate agrees, and refuses a wrong inverse
        assert linalg.is_right_inverse(m, inv) and linalg.is_right_inverse(inv, m)
        assert not linalg.is_right_inverse(m, rmatrix_scale(inv, 2))
        assert not linalg.is_right_inverse(m, rmatrix_add(m.matmul(inv), inv))
        with pytest.raises(ParameterError):
            linalg.is_right_inverse(m, from_dense(entries, row_lo=1))

    def test_right_inverse_reads_every_entry(self):
        # each product row has its diagonal entry 1: a one-entry row of m
        # (row 0 of the first pair) and a longer one (row 0 of the second)
        # fail on an entry off the diagonal alone
        m, n = from_dense([[2, 0], [0, 1]]), from_dense([["1/2", 1], [0, 1]])
        assert not linalg.is_right_inverse(m, n)
        m, n = from_dense([[1, 1], [0, 1]]), from_dense([[1, 0], [0, 1]])
        assert not linalg.is_right_inverse(m, n)
        assert linalg.is_right_inverse(m, from_dense([[1, -1], [0, 1]]))

    def test_preserves_window(self):
        m = from_dense([[5]], row_lo=10, col_lo=10)
        assert invert(m).get(10, 10) == Fraction(1, 5)


class TestDenseHelpers:
    def test_rank(self):
        assert rank([[frac(1), frac(2)], [frac(2), frac(4)]]) == 1

    def test_nullspace_annihilates(self):
        rows = [[frac(1), frac(2), frac(3)]]
        for vec in nullspace(rows, 3):
            assert sum(a * b for a, b in zip(rows[0], vec)) == 0
        assert len(nullspace(rows, 3)) == 2


# mixed denominators, from which sums and products often cancel to zero
mixed = st.sampled_from([Fraction(v) for v in (
    0, 0, 0, 1, -1, 2, "1/2", "-1/2", "1/3", "-2/3", "3/4", "5/6", "-5/6")])


def dense_lists(n_rows, n_cols):
    return st.lists(st.lists(mixed, min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


def assert_canonical(m):
    """Each stored row is ({col: nonzero int}, den) inside the windows,
    with den > 0 and gcd(den, entries) = 1."""
    for i, (row, den) in m._rows.items():
        assert m.row_lo <= i < m.row_hi and row
        assert all(m.col_lo <= j < m.col_hi for j in row)
        assert all(type(x) is int and x for x in row.values())
        assert type(den) is int and den > 0 and gcd(den, *row.values()) == 1


def assert_holds(m, dense, row_lo, col_lo):
    """m is canonical and reads as the dense Fraction lists everywhere."""
    assert_canonical(m)
    assert m.window == (row_lo, row_lo + len(dense),
                        col_lo, col_lo + len(dense[0]))
    assert to_dense(m) == dense
    assert all(type(v) is Fraction for row in to_dense(m) for v in row)
    assert all(m.get(row_lo + i, col_lo + j) == v
               for i, row in enumerate(dense) for j, v in enumerate(row))
    assert list(m.items()) == [(row_lo + i, col_lo + j, v)
                               for i, row in enumerate(dense)
                               for j, v in enumerate(row) if v]
    assert m.equals(from_dense(dense, row_lo=row_lo, col_lo=col_lo))


class TestIntegerRowsAgainstDenseOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_algebra(self, data):
        n, k, p = (data.draw(st.integers(1, 4)) for _ in range(3))
        lo_r, lo_k, lo_c = (data.draw(st.integers(-3, 3)) for _ in range(3))
        a = data.draw(dense_lists(n, k))
        # b cancels a wherever it draws -a_ij
        b = [[data.draw(st.one_of(st.just(-x), mixed)) for x in row] for row in a]
        c = data.draw(dense_lists(k, p))
        s = data.draw(mixed)
        ma = from_dense(a, row_lo=lo_r, col_lo=lo_k)
        mb = from_dense(b, row_lo=lo_r, col_lo=lo_k)
        mc = from_dense(c, row_lo=lo_k, col_lo=lo_c)
        assert_holds(ma, a, lo_r, lo_k)
        assert_holds(rmatrix_add(ma, mb), dense_oracles.matrix_sum(a, b), lo_r, lo_k)
        assert_holds(rmatrix_sub(ma, mb), dense_oracles.matrix_sum(
            a, dense_oracles.matrix_scale(b, -1)), lo_r, lo_k)
        assert_holds(rmatrix_scale(ma, s), dense_oracles.matrix_scale(a, s), lo_r, lo_k)
        assert_holds(ma.matmul(mc), dense_oracles.matrix_product(a, c),
                     lo_r, lo_c)
        assert op_norm_inf(ma) == dense_oracles.matrix_norm_inf(a)
        assert ma.equals(mb) == (a == b) == (ma == mb)
        assert rmatrix_add(ma, mb).equals(rmatrix_add(mb, ma))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: dense_lists(n, n)),
           st.integers(-3, 3))
    def test_invert(self, a, lo):
        m = from_dense(a, row_lo=lo, col_lo=lo)
        try:
            want = dense_oracles.matrix_inverse(a)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                invert(m)
            return
        assert_holds(invert(m), want, lo, lo)

    def test_sums_that_cancel(self):
        half_third = from_dense([["1/2", "1/3"]])
        assert_holds(half_third.matmul(from_dense([["2/3"], [-1]])), [[0]], 0, 0)
        got = rmatrix_add(from_dense([["1/2", "1/6"]]), from_dense([["-1/2", "1/3"]]))
        assert_holds(got, [[0, Fraction(1, 2)]], 0, 0)
        assert got._rows == {0: ({1: 1}, 2)}
        assert_holds(rmatrix_sub(half_third, half_third), [[0, 0]], 0, 0)
        assert rmatrix_scale(half_third, 0)._rows == {}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: dense_lists(n, 3)),
           st.integers(-3, 3))
    def test_json_round_trip(self, a, lo):
        m = from_dense(a, row_lo=lo, col_lo=lo + 1)
        obj = rmatrix_to_json(m)
        back = rmatrix_from_json(obj)
        assert back.equals(m) and back == m
        assert_canonical(back)
        assert canonical_dumps(rmatrix_to_json(back)) == canonical_dumps(obj)


def test_operations_on_canonical_rows_skip_frac():
    # a K=4 forge at horizon 64; its matrices' entries are checked once,
    # where they enter, and never again by the operations on them
    f = make_family(FamilyGenerator("branch", count=4, depth=3))
    g = make_family(FamilyGenerator("progression", count=4))
    run = run_generic(paired_from_certsets(f.sets, g.sets),
                      config=RunConfig(horizon=64))
    m, inv = run.m, functools.reduce(RMatrix.merged, run.invs)
    lo, hi = run.stages[-2][0], run.stages[-1][0]
    calls = []

    def counted(x):
        calls.append(x)
        return ratio(x)

    with mock.patch.object(linalg, "ratio", counted):
        product = m.matmul(inv)
        total = rmatrix_add(m, inv)
        eye = RMatrix.identity(0, m.n_rows)
        whole = m.block(0, lo).merged(m.block(lo, hi))
        assert calls == []
        RMatrix(0, 2, 0, 2, {0: {0: "1/2", 1: 3}, 1: {1: Fraction(1, 3)}})
        assert calls == ["1/2", 3, Fraction(1, 3)]
    assert product.equals(eye) and whole.equals(m)
    assert total.equals(rmatrix_add(inv, m))
