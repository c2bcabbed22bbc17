import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge.errors import UnboundedError
from qforge.linalg import frac, rank
from dense_oracles import DimensionCapError, solve_exact, vertex_enumerate


def brute_vertices(rows, dim):
    """Independent oracle: every choice of dim rows at every +-1 level."""
    verts = set()
    for subset in itertools.combinations(range(len(rows)), dim):
        sub = [list(rows[i]) for i in subset]
        if rank(sub) < dim:
            continue
        for signs in itertools.product((frac(1), frac(-1)), repeat=dim):
            sol = solve_exact(sub, list(signs))
            if sol is None:
                continue
            if all(abs(sum(a * b for a, b in zip(r, sol))) <= 1 for r in rows):
                verts.add(tuple(sol))
    return sorted(verts)


class TestVertexEnumerate:
    def test_square(self):
        rows = [[frac(1), frac(0)], [frac(0), frac(1)]]
        assert vertex_enumerate(rows) == [
            (-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_segment(self):
        assert vertex_enumerate([[frac(2)]]) == [(Fraction(-1, 2),), (Fraction(1, 2),)]

    def test_redundant_row_cuts_corners(self):
        rows = [[frac(1), frac(0)], [frac(0), frac(1)], [frac(1), frac(1)]]
        verts = vertex_enumerate(rows)
        # the diagonal slab removes (1,1) and (-1,-1), adds four new corners
        assert (1, 1) not in verts
        assert (1, 0) in verts and (0, 1) in verts
        assert len(verts) == 6

    def test_unbounded(self):
        with pytest.raises(UnboundedError):
            vertex_enumerate([[frac(1), frac(0)]])
        with pytest.raises(UnboundedError):
            vertex_enumerate([], dim=1)

    def test_dim_cap(self):
        rows = [[frac(1) if i == j else frac(0) for j in range(7)] for i in range(7)]
        with pytest.raises(DimensionCapError):
            vertex_enumerate(rows)
        assert len(vertex_enumerate(rows, cap=7)) == 2 ** 7

    def test_symmetric(self):
        rows = [[frac(1), frac(2)], [frac(3), frac(-1)]]
        verts = vertex_enumerate(rows)
        assert all(tuple(-v for v in x) in verts for x in verts)

    @given(st.lists(st.lists(st.integers(-3, 3).map(frac), min_size=3, max_size=3),
                    min_size=3, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, rows):
        try:
            verts = vertex_enumerate(rows)
        except UnboundedError:
            assert rank(rows) < 3
            return
        assert verts == brute_vertices(rows, 3)
