"""The block checker of `forcing` against its earlier form.

`forcing._check_block` decides a block's form, B B^-1 = I, B f = g on
each committed index and both norms in one `linalg.block_facts` pass over
the integer rows.  `dense_oracles.check_block` is the checker it
replaced: block copies, a product against the identity and a dense
apply per index.  On small rational blocks with tails whose values have
denominators other than 1, clean or with one mutant, both must give the
same failure list, in the same order, and the same two norms.  The test
runs once clean and once per mutant, so each mutant is checked by
construction, not by the draw, and a failure names its mutant.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_oracles
from qforge import forcing
from qforge.errors import SingularMatrixError
from qforge.forcing import PairedFamilies
from qforge.linalg import RMatrix, invert
from qforge.tails import TailVector

MUTANTS = ("outside", "inverse", "zero row", "interpolation", "norm",
           "unknown index")
# the failure each mutant must cause, by the start of its message
CAUGHT = {"outside": "(ii)", "inverse": "(b) carried", "zero row": "(b) carried",
          "interpolation": "(iv) xi", "norm": "(b) matrix norm",
          "unknown index": "(iv) index"}
TOP = 8  # the largest |value| of a tail: its period's diagonal entry


def small(lo, hi, max_denominator=4):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=max_denominator)


@st.composite
def blocks(draw, mutant):
    """(m, inv, lo, hi, a, families, c2) with the mutant: m on
    [0, hi + 1)^2 is the identity but for an invertible block B on
    [lo, hi), dense or a scaled permutation, and inv is its inverse.
    f-tails take values in [-1, 1] on [0, hi + 1) and g-tails equal B f
    there, so |B f| <= 4 * 2 * 1 stays within TOP; each period has TOP
    on its diagonal, so the spans are pi-injective.  c2 bounds both
    norms, unless the mutant is "norm", which sets it just below the
    norm of B."""
    count = draw(st.integers(1, 4))
    lo = draw(st.integers(0, 3))
    hi = lo + draw(st.integers(1, 4))
    size = hi + 1
    w = hi - lo
    if draw(st.booleans()):
        entries = draw(st.lists(st.lists(small(-2, 2, 3), min_size=w, max_size=w),
                                min_size=w, max_size=w))
    else:  # a scaled permutation, as the coordinate complements give
        perm = draw(st.permutations(range(w)))
        entries = [[draw(small(-2, 2, 3).filter(bool)) if j == perm[i] else 0
                    for j in range(w)] for i in range(w)]
    block = RMatrix(lo, hi, lo, hi, {lo + i: {lo + j: x for j, x in enumerate(row)}
                                     for i, row in enumerate(entries)})
    try:
        block_inv = invert(block)
    except SingularMatrixError:
        assume(False)
    outer = RMatrix(0, size, 0, size, {i: {i: 1} for i in range(size)
                                      if not lo <= i < hi})
    m, inv = outer.merged(block), outer.merged(block_inv)

    def period(k):
        return tuple(Fraction(TOP) if j == k else draw(small(-1, 1))
                     for j in range(count))
    f_prefixes = [draw(st.lists(small(-1, 1), min_size=size, max_size=size))
                  for _ in range(count)]
    g_prefixes = []
    for f in f_prefixes:
        g = list(f)  # B f on the block; the identity elsewhere
        for i, row in enumerate(entries):
            g[lo + i] = sum((x * f[lo + j] for j, x in enumerate(row)), Fraction(0))
        g_prefixes.append(g)
    a = tuple(sorted(draw(st.sets(st.integers(0, count - 1), min_size=1,
                                  max_size=min(3, count)))))
    norm = dense_oracles.op_norm_inf(block)
    c2 = max(Fraction(64), norm, dense_oracles.op_norm_inf(block_inv))
    i = draw(st.integers(lo, hi - 1))
    if mutant == "outside":
        j = draw(st.sampled_from([j for j in range(size) if not lo <= j < hi]))
        m = _with_row(m, i, {**_row(m, i), j: draw(small(-2, 2).filter(bool))})
    elif mutant == "inverse":
        j = draw(st.integers(lo, hi - 1))
        row = _row(inv, i)
        row[j] = row.get(j, 0) + draw(small(-2, 2).filter(bool))
        inv = _with_row(inv, i, row)
    elif mutant == "zero row":
        m = _with_row(m, i, {})
    elif mutant == "interpolation":
        g = g_prefixes[draw(st.sampled_from(a))]
        g[i] = -g[i] if g[i] else Fraction(1)
    elif mutant == "norm":
        c2 = norm - Fraction(1, 1000)
    elif mutant == "unknown index":
        a = a + (count + 5,)
    families = PairedFamilies(tuple(range(count)),
                              tuple(TailVector(tuple(p), period(k))
                                    for k, p in enumerate(f_prefixes)),
                              tuple(TailVector(tuple(p), period(k))
                                    for k, p in enumerate(g_prefixes)))
    return m, inv, lo, hi, a, families, c2


def _row(m, i):
    """Row i of m as {col: value}."""
    return {j: v for k, j, v in m.items() if k == i}


def _with_row(m, i, row):
    """m with row i replaced by row, zero if row holds no nonzero entry."""
    rows = {k: _row(m, k) for k in range(m.row_lo, m.row_hi)}
    return RMatrix(*m.window, {**rows, i: row})


@pytest.mark.parametrize("mutant", (None,) + MUTANTS)
def test_block_checker_matches_the_dense_checker(mutant):
    @settings(max_examples=200 // (len(MUTANTS) + 1), deadline=None)
    @given(blocks(mutant))
    def check(instance):
        m, inv, lo, hi, a, families, c2 = instance
        want = dense_oracles.check_block(m, inv, lo, hi, a, families, c2)
        assert forcing._check_block(m, inv, lo, hi, a, families, c2) == want
        caught = [f for f in want[0] if "): (c)" not in f]
        if mutant is None:
            assert caught == []
        else:
            assert any("): " + CAUGHT[mutant] in f for f in caught), (mutant, caught)
    check()
