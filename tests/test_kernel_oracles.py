"""The zero-skipping exact kernels against their dense originals.

`dense_oracles` keeps the elimination and simplex routines as they were
before row updates skipped zero entries.  On random sparse Fraction
matrices the library must return the same values, the same pivot
columns and, for the simplex, the same sequence of pivots.
"""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracles
from dense_oracles import from_dense, to_dense
from qforge import linalg, simplex
from qforge.errors import QForgeError, SingularMatrixError
from qforge.geometry import Subspace, kernel_of_functionals
from qforge.linalg import RMatrix, WindowVector, invert, nullspace, rank

# mostly zeros and ones, so that the zero and unit-pivot shortcuts are taken
entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(1)),
                    st.fractions(min_value=-4, max_value=4, max_denominator=3))


def matrices(max_rows=5, max_cols=6, rows=None, cols=None):
    return st.integers(1, max_cols).flatmap(
        lambda m: st.lists(st.lists(entries, min_size=cols or m, max_size=cols or m),
                           min_size=rows or 1, max_size=rows or max_rows))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_and_nullspace(rows):
    # the rref is determined by the kernel, so equal ranks and equal
    # kernel bases mean the library reduced rows to the oracle's rref
    assert rank(rows) == len(dense_oracles.rref(rows)[1])
    ncols = len(rows[0])
    assert nullspace(rows, ncols) == dense_oracles.nullspace(rows, ncols)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: matrices(rows=n, cols=n)), st.integers(-3, 3))
def test_invert(rows, lo):
    m = from_dense(rows, row_lo=lo, col_lo=lo)
    try:
        want = dense_oracles.invert(m)
    except SingularMatrixError as e:
        with pytest.raises(SingularMatrixError, match=str(e)):
            invert(m)
        return
    assert invert(m).equals(want)


@contextmanager
def recorded_pivots(module):
    """Record the (row, column) of every pivot `module`'s simplex makes."""
    seen = []
    original = module._pivot

    def pivot(tab, basis, r, c):
        seen.append((r, c))
        original(tab, basis, r, c)

    with mock.patch.object(module, "_pivot", pivot):
        yield seen


def outcome(module, cost, a_rows, b):
    with recorded_pivots(module) as pivots:
        try:
            result = module.simplex_min(cost, a_rows, b)
        except QForgeError as e:
            result = (type(e), str(e))
    return result, pivots


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_simplex_min_values_and_pivot_sequence(data):
    a_rows = data.draw(matrices(max_rows=4, max_cols=6))
    n = len(a_rows[0])
    b = data.draw(st.lists(entries, min_size=len(a_rows), max_size=len(a_rows)))
    cost = data.draw(st.lists(entries, min_size=n, max_size=n))
    got, got_pivots = outcome(simplex, cost, a_rows, b)
    want, want_pivots = outcome(dense_oracles, cost, a_rows, b)
    assert got == want
    assert got_pivots == want_pivots


def test_simplex_pivots_are_recorded():
    # guards the test above against a patch that records nothing
    _, pivots = outcome(simplex, [Fraction(1), Fraction(1)],
                        [[Fraction(1), Fraction(2)]], [Fraction(2)])
    assert pivots


def test_one_gauss_jordan_step():
    # rank, invert and the simplex all eliminate through linalg.pivot
    seen = []
    original = linalg.pivot

    def pivot(tab, r, c):
        seen.append((r, c))
        original(tab, r, c)

    with mock.patch.object(linalg, "pivot", pivot):
        two = Fraction(2)
        for run in (lambda: rank([[two, Fraction(1)]]),
                    lambda: invert(from_dense([[two]])),
                    lambda: simplex.simplex_min([Fraction(1), Fraction(1)],
                                                [[Fraction(1), two]], [two])):
            seen.clear()
            run()
            assert seen


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernels_match_dense_nullspace(data):
    lo = data.draw(st.integers(0, 4))
    funcs = data.draw(matrices(max_rows=3, max_cols=7))
    hi = lo + len(funcs[0])
    want = [WindowVector(lo, hi, tuple(v))
            for v in dense_oracles.nullspace(funcs, hi - lo)]
    psi = from_dense(funcs, col_lo=lo)
    assert list(kernel_of_functionals(psi).basis) == want
    square = funcs + [[Fraction(0)] * (hi - lo)] * (hi - lo - len(funcs))
    p = from_dense(square[:hi - lo], row_lo=lo, col_lo=lo)
    assert list(dense_oracles.kernel_subspace(p, lo, hi).basis) == [
        WindowVector(lo, hi, tuple(v))
        for v in dense_oracles.nullspace(to_dense(p), hi - lo)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_of_sparse_functionals(data):
    # psi shaped like the Hahn-Banach functionals of a wide window: a few
    # rows supported on a few columns, every other column free
    h = data.draw(st.integers(1, 5))
    lo = data.draw(st.integers(-4, 4))
    n = data.draw(st.integers(1, 64))
    support = data.draw(st.lists(st.integers(lo, lo + n - 1), max_size=8, unique=True))
    rows = {k: {j: data.draw(entries) for j in support} for k in range(h)}
    psi = RMatrix(0, h, lo, lo + n, rows)
    want = [WindowVector(lo, lo + n, tuple(v))
            for v in dense_oracles.nullspace(to_dense(psi), n)]
    basis = kernel_of_functionals(psi).basis
    assert list(basis) == want
    for v in basis:
        indices = [i for i, _ in v.items()]
        assert indices == sorted(indices)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_bases_have_private_pivots(data):
    # extend_isomorphism extracts coefficients of kernel bases, reordered
    # and rescaled, from their private pivots, with no elimination
    lo = data.draw(st.integers(0, 4))
    funcs = data.draw(matrices(max_rows=3, max_cols=7))
    kernel = kernel_of_functionals(from_dense(funcs, col_lo=lo))
    if kernel.dim == 0:
        return
    order = data.draw(st.permutations(range(kernel.dim)))
    scales = data.draw(st.lists(st.fractions(min_value=-3, max_value=3).filter(bool),
                                min_size=kernel.dim, max_size=kernel.dim))
    moved = Subspace(kernel.lo, kernel.hi,
                     tuple(kernel.basis[k].scale(c) for k, c in zip(order, scales)))
    for y in (kernel, moved):
        e = y.coefficient_extractor()
        assert e.matmul(y.basis_matrix).equals(RMatrix.identity(0, y.dim))
