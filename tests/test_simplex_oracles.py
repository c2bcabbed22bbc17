"""The integer-tableau simplex against the Fraction tableau it replaced.

`dense_oracles` keeps `simplex_min` and `max_linear` on a `Fraction`
tableau.  The library must return the same values, as Fractions, or the
same error, and it must make the same sequence of pivots.  Besides the
small random LPs of `test_kernel_oracles`, the LPs here take the shape of
the forge and amalgamate workloads: up to 8 rows, 16 to 64 columns,
entries mostly -1, 0 and 1 with an occasional p/q, and often the l1 form
[A | -A] with unit costs that `lp_min_l1` builds.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracles
from qforge import simplex
from qforge.errors import QForgeError
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
