import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import from_dense, matrix_apply, solve_exact, to_dense, vertex_enumerate
from qforge.errors import InfeasibleError, ParameterError, UnboundedError
from qforge.linalg import WindowVector, frac, rank
from qforge.simplex import L1Layout, lp_min_l1, max_linear, polyhedral_max, simplex_min

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def basic_solution_oracle(a_rows, b, cost):
    """Independent LP oracle: scan all basic solutions of Ax=b, x>=0."""
    m, n = len(a_rows), len(cost)
    best = None
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(min(m, n) + 1))
    for cols in subsets:
        sub = [[row[c] for c in cols] for row in a_rows]
        if rank(sub) < len(cols):
            continue
        sol = solve_exact(sub, b)
        if sol is None or any(v < 0 for v in sol):
            continue
        x = [frac(0)] * n
        for c, v in zip(cols, sol):
            x[c] = v
        val = sum(ci * xi for ci, xi in zip(cost, x))
        if best is None or val < best:
            best = val
    return best


class TestSimplexMin:
    def test_tiny(self):
        # min x1 + x2 s.t. x1 + x2 = 1
        x, val = simplex_min([frac(1), frac(1)], [[frac(1), frac(1)]], [frac(1)])
        assert val == 1
        assert sum(x) == 1

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            simplex_min([frac(1)], [[frac(1)], [frac(1)]], [frac(0), frac(1)])

    def test_unbounded(self):
        # min -x1 s.t. x1 - x2 = 0: drift off to infinity
        with pytest.raises(UnboundedError):
            simplex_min([frac(-1), frac(0)], [[frac(1), frac(-1)]], [frac(0)])

    def test_negative_rhs_handled(self):
        x, val = simplex_min([frac(1), frac(1)],
                             [[frac(-1), frac(0)]], [frac(-2)])
        assert x[0] == 2 and val == 2

    @given(st.lists(st.lists(st.integers(-4, 4).map(frac), min_size=4, max_size=4),
                    min_size=2, max_size=2),
           st.lists(st.integers(-3, 3).map(frac), min_size=2, max_size=2),
           st.lists(st.integers(0, 3).map(frac), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_basic_solution_scan(self, a_rows, b, cost):
        try:
            x, val = simplex_min(cost, a_rows, b)
        except InfeasibleError:
            assert basic_solution_oracle(a_rows, b, cost) is None
            return
        except UnboundedError:
            return  # the scan oracle has no unboundedness notion
        oracle = basic_solution_oracle(a_rows, b, cost)
        assert oracle is not None
        assert val == oracle
        assert all(v >= 0 for v in x)
        for row, rhs in zip(a_rows, b):
            assert sum(r * v for r, v in zip(row, x)) == rhs


def row_vectors(a):
    """The rows of a as vectors on its column window."""
    return [WindowVector(a.col_lo, a.col_hi, tuple(r)) for r in to_dense(a)]


class TestLpMinL1:
    def test_unit_sum(self):
        a = from_dense([[1, 1]])
        u, val = lp_min_l1(L1Layout(row_vectors(a)), [1])
        assert val == 1
        assert u.l1_norm() == 1
        assert matrix_apply(a, u).coords == (1,)

    def test_infeasible(self):
        a = from_dense([[1], [1]])
        with pytest.raises(InfeasibleError):
            lp_min_l1(L1Layout(row_vectors(a)), [0, 1])

    def test_prefers_cheap_column(self):
        # hitting b via the second column alone costs 1/2
        a = from_dense([[1, 2]])
        u, val = lp_min_l1(L1Layout(row_vectors(a)), [1])
        assert val == Fraction(1, 2)
        assert u.coords == (0, Fraction(1, 2))

    def test_empty_window_and_bad_input(self):
        # no variables: simplex_min itself answers the LP
        u, val = lp_min_l1(L1Layout([WindowVector(2, 2, ())]), [0])
        assert (u.lo, u.hi, val) == (2, 2, 0)
        with pytest.raises(InfeasibleError):
            lp_min_l1(L1Layout([WindowVector(2, 2, ())]), [1])
        v = WindowVector(0, 2, (1, 1))
        for vectors, rhs in (([], []), ([v], [1, 2]),
                             ([v, WindowVector(0, 3, (1, 0, 1))], [1, 1])):
            with pytest.raises(ParameterError):
                lp_min_l1(L1Layout(vectors), rhs)

    @given(st.lists(st.lists(st.integers(-3, 3).map(frac), min_size=3, max_size=3),
                    min_size=2, max_size=2),
           st.lists(st.integers(-2, 2).map(frac), min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_achieves_target_and_beats_seed(self, rows, seed):
        # by construction b = A(seed) is feasible, so the optimum is <= |seed|_1
        a = from_dense(rows)
        b = matrix_apply(a, WindowVector(0, 3, tuple(seed)))
        u, val = lp_min_l1(L1Layout(row_vectors(a)), b.coords)
        assert matrix_apply(a, u).coords == b.coords
        assert val == u.l1_norm() <= sum(abs(s) for s in seed)


class TestMaxLinear:
    def test_cube(self):
        rows = [[frac(1), frac(0)], [frac(0), frac(1)]]
        val, x = max_linear([frac(1), frac(1)], rows)
        assert val == 2
        assert sorted(map(abs, x)) == [1, 1]

    def test_unbounded_direction(self):
        with pytest.raises(UnboundedError):
            max_linear([frac(0), frac(1)], [[frac(1), frac(0)]])

    def test_skewed_ball(self):
        # |x1 + x2| <= 1, |x1 - x2| <= 1: vertices (+-1, 0), (0, +-1)
        rows = [[frac(1), frac(1)], [frac(1), frac(-1)]]
        val, x = max_linear([frac(1), frac(0)], rows)
        assert val == 1 and tuple(x) == (1, 0)


class TestPolyhedralMax:
    def test_matches_vertex_scan(self):
        rows = [[frac(1), frac(0)], [frac(0), frac(1)], [frac(1), frac(1)]]
        objs = [[frac(2), frac(-1)], [frac(0), frac(3)]]
        verts = vertex_enumerate(rows)
        oracle = max(abs(sum(o * v for o, v in zip(obj, vert)))
                     for obj in objs for vert in verts)
        val, x, idx = polyhedral_max(objs, rows)
        assert val == oracle
        assert idx in (0, 1)
        assert abs(sum(o * v for o, v in zip(objs[idx], x))) == val

    def test_rank_deficient_raises(self):
        with pytest.raises(UnboundedError):
            polyhedral_max([[frac(1), frac(1)]], [[frac(1), frac(0)]])

    def test_zero_objectives(self):
        val, x, idx = polyhedral_max([[frac(0), frac(0)]],
                                     [[frac(1), frac(0)], [frac(0), frac(1)]])
        assert val == 0 and idx is None

    @given(st.lists(st.lists(st.integers(-3, 3).map(frac), min_size=2, max_size=2),
                    min_size=2, max_size=4),
           st.lists(st.lists(st.integers(-3, 3).map(frac), min_size=2, max_size=2),
                    min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_enumeration(self, rows, objs):
        try:
            verts = vertex_enumerate(rows)
        except UnboundedError:
            return
        oracle = max((abs(sum(o * v for o, v in zip(obj, vert)))
                      for obj in objs for vert in verts), default=frac(0))
        val, _, _ = polyhedral_max(objs, rows)
        assert val == oracle
