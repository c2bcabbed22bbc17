"""The sparse WindowVector against a dense reference.

`DenseVector` is the dense-tuple vector the library used to store; every
operation of the sparse vector, and of the matrix code that reads its
nonzeros, must give the same window and the same coordinates.
"""

import copy
import pickle
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import dot, matrix_apply, rmatrix_scale, to_dense
from qforge.geometry import _canonical_basis_order, _lex_key
from qforge.linalg import ZERO, RMatrix, WindowVector


@dataclass(frozen=True)
class DenseVector:
    lo: int
    hi: int
    coords: tuple

    def value(self, i):
        return self.coords[i - self.lo] if self.lo <= i < self.hi else ZERO

    def sup_norm(self):
        return max((abs(c) for c in self.coords), default=ZERO)

    def l1_norm(self):
        return sum((abs(c) for c in self.coords), ZERO)

    def support(self):
        return frozenset(i for i in range(self.lo, self.hi) if self.value(i) != 0)

    def restrict(self, lo, hi):
        return DenseVector(lo, hi, tuple(self.value(i) for i in range(lo, hi)))

    def scale(self, s):
        return DenseVector(self.lo, self.hi, tuple(s * c for c in self.coords))

    def add(self, other):
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        return DenseVector(lo, hi, tuple(self.value(i) + other.value(i)
                                         for i in range(lo, hi)))

    def is_zero(self):
        return all(c == 0 for c in self.coords)


# mostly zeros, so that supports are sparse and often empty
entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(1)),
                    st.fractions(min_value=-5, max_value=5, max_denominator=4))


@st.composite
def windows(draw, max_len=8):
    lo = draw(st.integers(0, 5))
    return lo, lo + draw(st.integers(0, max_len))


@st.composite
def vector_pairs(draw):
    """A sparse vector and its dense twin, on a drawn window."""
    lo, hi = draw(windows())
    coords = tuple(draw(st.lists(entries, min_size=hi - lo, max_size=hi - lo)))
    return WindowVector(lo, hi, coords), DenseVector(lo, hi, coords)


def same(v, d):
    return (v.lo, v.hi, v.coords) == (d.lo, d.hi, d.coords)


@settings(max_examples=200, deadline=None)
@given(vector_pairs(), vector_pairs(), windows(max_len=10), entries)
def test_operations_match_dense(a, b, window, s):
    (v, dv), (w, dw) = a, b
    assert same(v, dv)
    for i in range(v.lo - 2, v.hi + 2):
        assert v.value(i) == dv.value(i)
    for _ in range(2):  # the second call reads the cached value
        assert v.sup_norm() == dv.sup_norm()
        assert v.support() == dv.support()
    assert v.l1_norm() == dv.l1_norm()
    assert v.is_zero() == dv.is_zero()
    assert dict(v.items()) == {i: dv.value(i) for i in dv.support()}
    assert list(dict(v.items())) == sorted(dv.support())
    assert same(v.restrict(*window), dv.restrict(*window))
    assert same(v.scale(s), dv.scale(s))
    assert same(v.scale(0), dv.scale(0)) and v.scale(0).is_zero()
    assert same(v.add(w), dv.add(dw))
    assert dot(v, w) == dot(dv, dw) == dot(w, v)


@settings(max_examples=200, deadline=None)
@given(vector_pairs(), vector_pairs())
def test_equality_and_hash_match_dense(a, b):
    (v, dv), (w, dw) = a, b
    assert (v == w) == (dv == dw)
    assert (v != w) == (dv != dw)
    # the same value reached by another route is equal and hashes equal
    twin = WindowVector.sparse(v.lo, v.hi, {i: c for i, c in v.items()})
    assert twin == v and hash(twin) == hash(v)
    assert v.add(WindowVector.zero(v.lo, v.hi)) == v
    assert v.add(v.scale(-1)) == WindowVector.zero(v.lo, v.hi)
    assert hash(v.add(v.scale(-1))) == hash(WindowVector.zero(v.lo, v.hi))
    assert v != dv


def test_all_zero_vectors():
    for lo, hi in ((0, 0), (3, 3), (2, 7)):
        z = WindowVector(lo, hi, (0,) * (hi - lo))
        assert z == WindowVector.zero(lo, hi)
        assert z == WindowVector.sparse(lo, hi, {lo: 0} if hi > lo else {})
        assert z.is_zero() and z.support() == frozenset()
        assert z.sup_norm() == z.l1_norm() == 0
        assert z.coords == (ZERO,) * (hi - lo)
    assert WindowVector.zero(0, 3) != WindowVector.zero(0, 4)


def test_immutable_and_copyable():
    v = WindowVector(1, 4, (0, "2/3", -1))
    with pytest.raises(AttributeError):
        v.lo = 0
    for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert twin == v and twin.coords == v.coords


@pytest.mark.parametrize("m", [
    RMatrix(3, 5, 7, 7, {}),
    RMatrix(-2, 1, 4, 7, {0: {5: "1/2", 4: -1}, -2: {6: "2/3"}}),
    rmatrix_scale(RMatrix.identity(0, 3), "5/7"),
], ids=["empty-offset", "sparse", "scaled-identity"])
def test_matrix_immutable_and_copyable(m):
    with pytest.raises(AttributeError):
        m.row_lo = 0
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m)),
                 eval(repr(m), {"RMatrix": RMatrix, "Fraction": Fraction})):
        assert twin == m and twin.window == m.window
        assert list(twin.items()) == list(m.items())
        assert to_dense(twin) == to_dense(m)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matrix_routines_match_dense(data):
    lo, hi = data.draw(windows())
    n_cols = data.draw(st.integers(1, 4))
    dense_cols = [tuple(data.draw(st.lists(entries, min_size=hi - lo, max_size=hi - lo)))
                  for _ in range(n_cols)]
    cols = [WindowVector(lo, hi, c) for c in dense_cols]
    m = RMatrix.from_columns(cols)
    assert to_dense(m) == [[c[i] for c in dense_cols] for i in range(hi - lo)]
    assert (m.col_lo, m.col_hi) == (0, n_cols)
    r = RMatrix.from_rows_vectors(cols)
    assert to_dense(r) == [list(c) for c in dense_cols]
    assert (r.row_lo, r.row_hi) == (0, n_cols)
    x = tuple(data.draw(st.lists(entries, min_size=n_cols, max_size=n_cols)))
    got = matrix_apply(m, WindowVector(0, n_cols, x))
    want = tuple(sum((c[i] * x[j] for j, c in enumerate(dense_cols)), ZERO)
                 for i in range(hi - lo))
    assert (got.lo, got.hi, got.coords) == (lo, hi, want)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_canonical_basis_order_matches_dense_order(data):
    lo, hi = data.draw(windows())
    coords = data.draw(st.lists(st.lists(entries, min_size=hi - lo, max_size=hi - lo),
                                max_size=8))
    # repeat some vectors so that ties occur
    coords += data.draw(st.lists(st.sampled_from(coords), max_size=3)) if coords else []
    basis = [WindowVector(lo, hi, tuple(c)) for c in coords]
    dense_order = sorted(basis, key=lambda v: (min(v.support(), default=v.hi), v.coords))
    got = _canonical_basis_order(basis)
    assert [v.coords for v in got] == [v.coords for v in dense_order]
    lex = sorted(basis, key=_lex_key)
    assert [v.coords for v in lex] == sorted(v.coords for v in basis)
