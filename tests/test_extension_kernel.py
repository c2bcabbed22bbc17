"""`linalg.extension_block`, `product_norm` and `is_product` against the
generic algebra they replaced in `extend_isomorphism`.

`extension_block` builds (B_to - R B_from) Psi + R row by row and
multiplies each distinct row of B_to - R B_from by Psi once per call;
`product_norm` reads |B Psi| off B and Psi; `is_product` decides
w B_1 = B_2 row by row.  Each must give what `matmul`, `equals` and the
sums kept in `dense_oracles` give: on drawn matrices with and without
repeated rows, with R a 0/1 pairing (the coordinate path) or dense (the
complement path), and inside `extend_isomorphism` on both of its paths.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dense_oracles
from dense_oracles import from_dense
from qforge import geometry, linalg
from qforge.errors import ParameterError, QForgeError
from qforge.geometry import LinMap, Subspace, extend_isomorphism
from qforge.linalg import RMatrix, extension_block, is_product, op_norm_inf, product_norm
from test_extension_oracles import CONFIG, DENSE, near_indicators, tail_windows, wv

entries = st.sampled_from([Fraction(v) for v in (0, 0, 0, 1, -1, 2, "1/2", "-2/3", "3/4")])


def dense(draw, n, k, pool=None):
    """n drawn rows of k entries, each one of `pool` drawn rows if given."""
    rows = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(pool or n)]
    return [draw(st.sampled_from(rows)) for _ in range(n)] if pool else rows


@st.composite
def kernel_inputs(draw):
    """(b_to, r, b_from, psi) on [lo, lo + n) with h coefficient columns:
    r a pairing of drawn indices or a dense matrix, and the rows of each
    matrix repeated when drawn from a pool of one or two."""
    n, h, lo = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(-2, 2))
    pool = draw(st.sampled_from([None, 1, 2]))
    b_to = from_dense(dense(draw, n, h, pool), row_lo=lo)
    b_from = from_dense(dense(draw, n, h, pool), row_lo=lo)
    psi = from_dense(dense(draw, h, n), col_lo=lo)
    if draw(st.booleans()):
        k = draw(st.integers(0, n))
        rows = draw(st.permutations(range(lo, lo + n)))[:k]
        cols = draw(st.permutations(range(lo, lo + n)))[:k]
        r = RMatrix.pairing(lo, lo + n, rows, cols)
    else:
        r = from_dense(dense(draw, n, n, pool), row_lo=lo, col_lo=lo)
    return b_to, r, b_from, psi


PSI = from_dense([[1, 0, 0, "1/2"], [0, 2, -1, 0]])
# B_to - R B_from has the rows (1, 0) three times and (0, 1) once
REPEATED = (from_dense([[1, 0], [1, 0], [1, 0], [0, 1]]), RMatrix(0, 4, 0, 4, {}),
            from_dense([[0, 1], [1, 1], [2, 0], [0, 0]]), PSI)
# the coordinate path: R pairs 0 with 1 and 1 with 0, so the rows are
# 0, 0, (0, 1) and (0, 1)
PAIRED = (from_dense([[1, 0], [1, 0], [0, 1], [0, 1]]), RMatrix.pairing(0, 4, [0, 1], [1, 0]),
          from_dense([[1, 0], [1, 0], [0, 1], [0, 1]]), PSI)

# rows 0 and 1 of R name the same row of B_from with other coefficients,
# so row 0 of B_to - R B_from is (1, -1) and row 1 is (1, -2)
SCALED = (from_dense([[1, 0], [1, 0]]), from_dense([[1, 0], [2, 0]]),
          from_dense([[0, 1], [1, 1]]), from_dense([[1, 0], [0, 1]]))


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
@example(REPEATED)
@example(PAIRED)
@example(SCALED)
def test_kernel_is_the_formula(inputs):
    b_to, _, b_from, psi = inputs
    assert extension_block(*inputs).equals(dense_oracles.extension_formula(*inputs))
    for b in (b_to, b_from):
        assert product_norm(b, psi) == op_norm_inf(b.matmul(psi))


def psi_products(monkeypatch, psi):
    """The rows that linalg multiplies by psi, one entry per product."""
    rows = []
    row_times = linalg._row_times

    def counted(row, den, orows):
        if orows is psi._rows:
            rows.append(dict(row))
        return row_times(row, den, orows)
    monkeypatch.setattr(linalg, "_row_times", counted)
    return rows


@pytest.mark.parametrize("inputs, distinct", [(REPEATED, 2), (PAIRED, 2)],
                         ids=["zero-r", "pairing"])
def test_each_distinct_row_is_multiplied_once_per_call(monkeypatch, inputs, distinct):
    rows = psi_products(monkeypatch, inputs[3])
    w = extension_block(*inputs)
    assert len(rows) == distinct
    assert extension_block(*inputs).equals(w)
    assert len(rows) == 2 * distinct  # nothing is kept between calls
    rows.clear()
    assert product_norm(inputs[0], inputs[3]) == 3
    assert sorted(map(sorted, map(dict.items, rows))) == [[(0, 1)], [(1, 1)]]


def test_kernel_windows_must_match():
    b_to, r, b_from, psi = REPEATED
    for args in ((b_to, r, b_from, from_dense([[1, 0, 0]])),
                 (from_dense([[1]] * 4), r, b_from, psi),
                 (b_to, RMatrix(1, 5, 1, 5, {}), b_from, psi)):
        with pytest.raises(ParameterError):
            extension_block(*args)
    with pytest.raises(ParameterError):
        product_norm(b_to, from_dense([[1, 0, 0, 0]]))


def test_pairing_checks_its_indices():
    assert RMatrix.pairing(0, 3, [2, 0], [0, 1]).equals(
        RMatrix(0, 3, 0, 3, {2: {0: 1}, 0: {1: 1}}))
    for rows, cols in (([0, 0], [1, 2]), ([3], [0]), ([0], [-1]), ([0, 1], [0])):
        with pytest.raises(ParameterError):
            RMatrix.pairing(0, 3, rows, cols)


def hold_to_the_formula(mp):
    """Replace the kernel and the norm in geometry by versions that check
    each result against the generic algebra; the calls, by kind."""
    calls = Counter()

    def block(b_to, r, b_from, psi):
        w = extension_block(b_to, r, b_from, psi)
        assert w.equals(dense_oracles.extension_formula(b_to, r, b_from, psi))
        calls["block"] += 1
        return w

    def norm(b, psi):
        value = product_norm(b, psi)
        assert value == op_norm_inf(b.matmul(psi))
        calls["norm"] += 1
        return value
    complement_iso = geometry.complement_iso

    def counted_iso(*args):
        calls["complement_iso"] += 1
        return complement_iso(*args)
    mp.setattr(geometry, "extension_block", block)
    mp.setattr(geometry, "product_norm", norm)
    mp.setattr(geometry, "complement_iso", counted_iso)
    return calls


@pytest.mark.parametrize("basis, images, path", [
    ((wv(1, 1, 0, 0), wv(0, 0, 1, 0)), (wv(0, 0, 0, 2), wv(1, 0, 0, 0)), "coordinate"),
    (*DENSE, "complement")])
def test_both_paths_build_the_formula(monkeypatch, basis, images, path):
    calls = hold_to_the_formula(monkeypatch)
    extend_isomorphism(LinMap(Subspace(0, 4, basis), images), CONFIG)
    assert calls["block"] == calls["norm"] == 2
    assert calls["complement_iso"] == (path == "complement")


@settings(max_examples=40, deadline=None)
@given(st.one_of(near_indicators(), tail_windows()))
def test_drawn_extensions_build_the_formula(instance):
    basis, images = instance
    try:
        t = LinMap(Subspace(basis[0].lo, basis[0].hi, tuple(basis)), tuple(images))
    except ParameterError:  # a dependent basis is no instance
        assume(False)
    with pytest.MonkeyPatch.context() as mp:
        hold_to_the_formula(mp)
        try:
            extend_isomorphism(t, CONFIG)
        except QForgeError:
            pass


def edited(m, drop=None, put=None):
    """m with row drop removed and the entry put = (i, j, value) set."""
    rows = {}
    for i, j, v in m.items():
        if i != drop:
            rows.setdefault(i, {})[j] = v
    if put:
        i, j, v = put
        rows.setdefault(i, {})[j] = v
    return RMatrix(*m.window, rows)


@st.composite
def product_mutants(draw):
    """(m, n, p) with p = m0 n for a drawn m0, and m either m0, or m0 with
    one entry changed, a row dropped, or a row added."""
    a, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    m0 = from_dense([draw(st.lists(entries, min_size=k, max_size=k))
                     if draw(st.booleans()) else [0] * k for _ in range(a)])
    n = from_dense(dense(draw, k, c))
    i, j = draw(st.integers(0, a - 1)), draw(st.integers(0, k - 1))
    m = draw(st.sampled_from([
        m0, edited(m0, put=(i, j, m0.get(i, j) + 1)), edited(m0, drop=i),
        edited(m0, put=(i, j, draw(entries)))]))
    return m, n, m0.matmul(n)


@settings(max_examples=200, deadline=None)
@given(product_mutants())
def test_row_check_is_the_product_check(args):
    m, n, p = args
    assert is_product(m, n, p) == m.matmul(n).equals(p)


def test_row_check_catches_each_mutant_of_an_extension():
    # w B_1 = B_2 on DENSE's extension; w with one entry changed, w that
    # lacks a row B_2 has, and w with a row the product it is held to lacks
    basis, images = DENSE
    y1 = Subspace(0, 4, basis)
    b1, b2 = y1.basis_matrix, Subspace(0, 4, images).basis_matrix
    w = extend_isomorphism(LinMap(y1, images), CONFIG).w
    assert is_product(w, b1, b2) and w.matmul(b1).equals(b2)
    i = next(i for i in range(4) if b2.columns(i))
    j = next(j for j in w.columns(i) if b1.columns(j))
    short = edited(w, drop=i)
    for m, p in ((edited(w, put=(i, j, w.get(i, j) + 1)), b2), (short, b2),
                 (w, short.matmul(b1))):
        assert not m.matmul(b1).equals(p)
        assert not is_product(m, b1, p)
    with pytest.raises(ParameterError):
        is_product(w, from_dense([[1]]), b2)
