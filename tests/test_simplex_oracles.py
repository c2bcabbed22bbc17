"""The integer-tableau simplex against the Fraction tableau it replaced.

`dense_oracles` keeps `simplex_min` and `max_linear` on a `Fraction`
tableau.  The library must return the same values, as Fractions, or the
same error, and it must make the same sequence of pivots.  Besides the
small random LPs of `test_kernel_oracles`, the LPs here take the shape of
the forge and amalgamate workloads: up to 8 rows, 16 to 64 columns,
entries mostly -1, 0 and 1 with an occasional p/q, and often the l1 form
[A | -A] with unit costs that `lp_min_l1` builds.

`lp_min_l1` solves on an `L1Layout`, which lays out only the distinct
nonzero columns of its vectors; `dense_oracles` keeps it with one column
per window index.  On vectors with repeated columns, zero columns and
columns equal up to sign, both must give the same u, the same value and
the same pivots, once each merged column is mapped back to the first
window index that holds it, also when one layout serves several
right-hand sides, as it does for the h extensions of a projection.
The sign-normalized dedup of rows is held to the seen set of each row
and its negation that it replaced.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracles
from qforge import simplex
from qforge.errors import QForgeError
from qforge.linalg import WindowVector
from test_kernel_oracles import entries, outcome, recorded_pivots

# one entry in ten is a p/q
workload_entries = st.sampled_from(
    [Fraction(v) for v in (-1, -1, -1, 0, 0, 0, 0, 0, 0, 1, 1, 1)] * 3
    + [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(-5, 2)])


def assert_fractions(result):
    """A solved LP hands out Fractions, which the JSON writer relies on."""
    if isinstance(result[0], type):
        return
    for part in result:
        for v in part if isinstance(part, list) else [part]:
            assert type(v) is Fraction


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_simplex_min_on_workload_shaped_lps(data):
    m = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(16, 64))
    l1_form = data.draw(st.booleans())
    width = n // 2 if l1_form else n
    a_rows = data.draw(st.lists(st.lists(workload_entries, min_size=width,
                                         max_size=width),
                                min_size=m, max_size=m))
    b = data.draw(st.lists(workload_entries, min_size=m, max_size=m))
    if l1_form:
        a_rows = [row + [-v for v in row] for row in a_rows]
        cost = [Fraction(1)] * (2 * width)
    else:
        cost = data.draw(st.lists(workload_entries, min_size=n, max_size=n))
    got, got_pivots = outcome(simplex, cost, a_rows, b)
    want, want_pivots = outcome(dense_oracles, cost, a_rows, b)
    assert got == want
    assert got_pivots == want_pivots
    assert_fractions(got)


def max_linear_outcome(module, objective, rows):
    with recorded_pivots(module) as pivots:
        try:
            result = module.max_linear(objective, rows)
        except QForgeError as e:
            result = (type(e), str(e))
    return result, pivots


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_max_linear_values_and_pivot_sequence(data):
    d = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                              max_size=6))
    objective = data.draw(st.lists(entries, min_size=d, max_size=d))
    got, got_pivots = max_linear_outcome(simplex, objective, rows)
    want, want_pivots = max_linear_outcome(dense_oracles, objective, rows)
    assert got == want
    assert got_pivots == want_pivots
    assert_fractions(got)


def test_max_linear_pivots_are_recorded():
    # guards the test above against a patch that records nothing
    (value, _), pivots = max_linear_outcome(
        simplex, [Fraction(1), Fraction(1)],
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]])
    assert value == Fraction(3, 2)
    assert pivots


def lp_outcome(module, solve):
    """solve()'s result, or its error's type and message, and the pivots
    that module's simplex made."""
    with recorded_pivots(module) as pivots:
        try:
            result = solve()
        except QForgeError as e:
            result = (type(e), str(e))
    return result, pivots


def draw_l1_vectors(data):
    """(vectors, their columns) on one window, with repeated columns, zero
    columns and columns equal up to sign."""
    h = data.draw(st.integers(1, 4))
    column = st.lists(workload_entries, min_size=h, max_size=h)
    pool = data.draw(st.lists(column, min_size=1, max_size=4))
    negated = data.draw(st.integers(0, len(pool)))
    pool += [[-v for v in col] for col in pool[:negated]] + [[Fraction(0)] * h]
    n = data.draw(st.integers(1, 20))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    lo = data.draw(st.integers(-3, 3))
    columns = [tuple(pool[p]) for p in picks]
    vectors = [WindowVector(lo, lo + n, tuple(col[k] for col in columns))
               for k in range(h)]
    return vectors, columns


def draw_rhs(data, columns, h):
    if data.draw(st.booleans()):
        # a right-hand side the vectors reach: <seed, v_k>
        seed = data.draw(st.lists(workload_entries, min_size=len(columns),
                                  max_size=len(columns)))
        return [sum((s * col[k] for s, col in zip(seed, columns)), Fraction(0))
                for k in range(h)]
    return data.draw(st.lists(workload_entries, min_size=h, max_size=h))


def assert_same_lp(got, want, columns):
    """got, from the layout's LP, is want, from the LP over every window
    index, once each pivot column is mapped back: the merged LP's column
    j is the first index holding the j-th distinct nonzero column, and
    artificials follow both halves."""
    n = len(columns)
    kept = [t for t, col in enumerate(columns) if any(col) and col not in columns[:t]]
    w = len(kept)

    def window_column(c):
        if c < w:
            return kept[c]
        if c < 2 * w:
            return n + kept[c - w]
        return 2 * n + c - 2 * w

    (got, got_pivots), (want, want_pivots) = got, want
    assert [(r, window_column(c)) for r, c in got_pivots] == want_pivots
    if isinstance(got[0], type):
        assert got == want
        return
    (u, value), (want_u, want_value) = got, want
    assert u.coords == want_u.coords
    assert value == want_value
    assert type(value) is Fraction


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lp_min_l1_on_distinct_columns(data):
    vectors, columns = draw_l1_vectors(data)
    rhs = draw_rhs(data, columns, len(vectors))
    got = lp_outcome(simplex, lambda: simplex.lp_min_l1(simplex.L1Layout(vectors), rhs))
    want = lp_outcome(dense_oracles, lambda: dense_oracles.lp_min_l1(vectors, rhs))
    assert_same_lp(got, want, columns)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_layout_solves_every_right_hand_side(data):
    # a projection solves h LPs on one layout: each must be the LP the
    # oracle solves afresh, and no solve may change the shared rows
    vectors, columns = draw_l1_vectors(data)
    h = len(vectors)
    layout = simplex.L1Layout(vectors)
    for _ in range(data.draw(st.integers(1, 4))):
        rhs = draw_rhs(data, columns, h)
        if data.draw(st.integers(0, 9)) == 0:
            rhs = rhs + [Fraction(1)]  # one too many
        got = lp_outcome(simplex, lambda: simplex.lp_min_l1(layout, rhs))
        want = lp_outcome(dense_oracles, lambda: dense_oracles.lp_min_l1(vectors, rhs))
        assert_same_lp(got, want, columns)
    fresh = simplex.L1Layout(vectors)
    assert (layout.kept, layout.rows) == (fresh.kept, fresh.rows)


def test_lp_min_l1_merges_columns():
    # guards the test above against a layout that merges nothing: indices
    # 1 and 3 repeat index 0, index 2 is zero, and index 4 is index 0
    # negated, which stays a column of its own
    one, zero = Fraction(1), Fraction(0)
    v = WindowVector(0, 5, (one, one, zero, one, -one))
    widths = []
    original = simplex.simplex_min

    def simplex_min(cost, a_rows, b):
        widths.append(len(cost))
        return original(cost, a_rows, b)

    with mock.patch.object(simplex, "simplex_min", simplex_min):
        u, value = simplex.lp_min_l1(simplex.L1Layout([v]), [Fraction(2)])
    assert widths == [4]
    assert (u.coords, value) == ((2, 0, 0, 0, 0), 2)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from([Fraction(v) for v in (-2, -1, 0, 0, 1, 2)]
                                         + [Fraction(1, 2), Fraction(-1, 2)]),
                         min_size=3, max_size=3), max_size=12))
def test_rows_deduped_up_to_sign(rows):
    want = dense_oracles.distinct_up_to_sign(rows)
    assert list(simplex._distinct_up_to_sign(rows)) == want
    assert simplex._dedup_rows(rows) == [row for _, row in want]
