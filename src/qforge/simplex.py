"""Exact rational simplex and the polyhedral-norm maximization built on it.

Bland's rule everywhere, so pivoting terminates and every run is a
deterministic function of its input.  The optimum of a linear functional
over a bounded polytope is attained at a basic feasible point, i.e. at a
vertex; the terminal tableau's nonnegative reduced costs are the
optimality certificate.

The tableau holds the integer rows (ints, den) of `linalg`, and every
pivot is `linalg.pivot`, the one Gauss-Jordan step.  Bland's rule reads
the sign of an integer reduced cost, and the ratio test compares
rhs_r / a_r across rows by cross-multiplying, since a row's denominator
cancels from its own ratio.  So every decision, and every value, is the
one a Fraction tableau makes.  Inputs become integer rows once, on the
way in; the solution and the objective become Fractions once, on the way
out.  The constraint rows of `lp_min_l1` are laid out and read once per
`L1Layout`, which every right-hand side on the same vectors shares; on a
diagonal layout `lp_min_l1` writes its one optimum down, with no simplex.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import linalg
from .errors import InfeasibleError, ParameterError, UnboundedError
from .linalg import ZERO, WindowVector, rank


def _pivot(tab, basis, r, c):
    """The Gauss-Jordan step on (r, c), and column c enters the basis at r."""
    linalg.pivot(tab, r, c)
    basis[r] = c


def _run_simplex(tab, basis, cost):
    """Minimize the cost row (ints, den) over the tableau in place.
    Returns the objective value.

    While it runs, the reduced-cost row rides below the constraint rows,
    so each pivot step updates it too; its last entry is minus the
    objective."""
    m = len(tab)
    if m == 0:
        return ZERO
    ncols = len(cost[0]) - 1
    tab.append(cost)
    # price out the basis: basic columns are unit columns, so each step
    # changes only the reduced-cost row
    for r, bvar in enumerate(basis):
        linalg.eliminate(tab, m, r, bvar)
    while True:
        z = tab[m][0]
        enter = next((j for j in range(ncols) if z[j] < 0), None)  # Bland
        if enter is None:
            z, den = tab.pop()
            return Fraction(-z[-1], den)
        leave = None
        for r in range(m):
            row = tab[r][0]
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, num, a_best = r, row[-1], a
                    continue
                lhs, rhs = row[-1] * a_best, num * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, num, a_best = r, row[-1], a
        if leave is None:
            raise UnboundedError("objective unbounded below")
        _pivot(tab, basis, leave, enter)


def _basic_values(tab, basis, ncols):
    x = [ZERO] * ncols
    for (row, den), bvar in zip(tab, basis):
        x[bvar] = Fraction(row[-1], den)
    return x


class EqualityRows(tuple):
    """Equality-constraint rows read once into integer rows (ints, den),
    so that `simplex_min` can solve them for many right-hand sides without
    reading them again."""

    __slots__ = ()

    def __new__(cls, a_rows):
        return super().__new__(cls, [linalg.int_row(list(row)) for row in a_rows])


def _with_rhs(ints, den, rhs):
    """The integer row (ints, den) with the rational rhs appended, over
    lcm(den, rhs's denominator): the row that `linalg.int_row` makes of
    the rationals with rhs appended, since lcm is associative."""
    q = rhs.denominator
    full = lcm(den, q)
    if full != den:
        s = full // den
        ints = [x * s for x in ints]
    return ints + [rhs.numerator * (full // q)], full


def simplex_min(cost, a_rows, b):
    """Minimize cost.x subject to (a_rows)x = b, x >= 0.

    Entries are exact rationals (ints or Fractions); a_rows may also come
    as `EqualityRows`, read already.  Returns (x, value) in Fractions.
    Raises InfeasibleError / UnboundedError.
    """
    if not isinstance(a_rows, EqualityRows):
        a_rows = EqualityRows(a_rows)
    m = len(a_rows)
    n = len(cost)
    tab = []
    # phase 1: artificial variables n .. n+m-1
    for r, ((ints, den), rhs) in enumerate(zip(a_rows, b)):
        ints, den = _with_rhs(ints, den, rhs)
        if rhs < 0:
            ints = [-x for x in ints]
        artificial = [0] * m
        artificial[r] = den
        tab.append((ints[:n] + artificial + ints[n:], den))
    basis = [n + r for r in range(m)]
    if _run_simplex(tab, basis, ([0] * n + [1] * m + [0], 1)) != 0:
        raise InfeasibleError("equality system is inconsistent")
    # drive artificials out of the basis
    drop = []
    for r in range(m):
        if basis[r] >= n:
            row = tab[r][0]
            piv = next((j for j in range(n) if row[j]), None)
            if piv is None:
                drop.append(r)
            else:
                _pivot(tab, basis, r, piv)
    for r in sorted(drop, reverse=True):
        del tab[r]
        del basis[r]
    tab = [(row[:n] + row[-1:], den) for row, den in tab]
    ints, den = linalg.int_row(list(cost))
    val = _run_simplex(tab, basis, (ints + [0], den))
    return _basic_values(tab, basis, n), val


class L1Layout:
    """The constraint side of `lp_min_l1` for vectors v_1, ..., v_h on one
    window, laid out once for any number of right-hand sides.

    The column of index i is (v_1(i), ..., v_h(i)).  `kept` holds the
    first index of each distinct nonzero column, in index order, and
    `rows` the rows [v_k | -v_k] over the kept columns as `EqualityRows`.
    Under Bland's rule the LP over the kept columns makes the pivots of
    the LP over every index, mapped to the kept ones: a later copy of a
    column has the reduced cost of its first copy, so it never enters
    before it, and has reduced cost 0 while the first copy is basic; a
    zero column has reduced cost 1 (0 in phase 1); the drive-out of
    artificials takes the first nonzero entry of a row, a first copy; and
    the ratio test breaks ties by basis index, whose order the kept
    columns keep.  Columns equal up to sign are not merged, since the u-
    half already holds each column's negated copy.

    The layout is diagonal when each kept column has one nonzero entry
    c_k and each vector v_k owns one kept column i_k; `diagonal` then
    holds (i_k, c_k) per vector, else None.  The LP over the kept columns
    then reads c_k (p_k - q_k) = rhs_k, and min sum(p_k + q_k) has the
    one optimum p_k - q_k = rhs_k / c_k, which `lp_min_l1` writes down.
    """

    __slots__ = ("lo", "hi", "kept", "rows", "diagonal")

    def __init__(self, vectors):
        if not vectors:
            raise ParameterError("at least one constraint vector required")
        lo, hi = vectors[0].lo, vectors[0].hi
        if any((v.lo, v.hi) != (lo, hi) for v in vectors):
            raise ParameterError("constraint vector windows differ")
        columns = {}
        for k, v in enumerate(vectors):
            for i, c in v.items():
                columns.setdefault(i, []).append((k, c))
        first = {}
        for i in sorted(columns):
            first.setdefault(tuple(columns[i]), i)
        n = len(first)
        rows = [[0] * (2 * n) for _ in vectors]
        for j, column in enumerate(first):
            for k, c in column:
                rows[k][j], rows[k][n + j] = c, -c
        self.lo, self.hi = lo, hi
        self.kept = tuple(first.values())
        self.rows = EqualityRows(rows)
        owned = {col[0][0]: (i, col[0][1]) for col, i in first.items() if len(col) == 1}
        self.diagonal = (tuple(owned[k] for k in range(len(vectors)))
                         if len(owned) == n == len(vectors) else None)


def lp_min_l1(layout: L1Layout, rhs):
    """Minimize ||u||_1 subject to <u, v_k> = rhs_k for each vector v_k of
    the layout, exactly.

    u lives on the vectors' common window; the split u = u+ - u- turns
    the problem into a standard-form LP with unit costs over the layout's
    kept columns, whose integer rows each solve shares: phase 1 appends
    rhs to them.

    On a diagonal layout u = sum_k (rhs_k / c_k) e_{i_k}, its nonzero
    terms, with value sum_k |rhs_k / c_k|, and no simplex runs: after the
    split the LP reads p_k - q_k = rhs_k / c_k, whose one optimum of
    min sum(p_k + q_k) any correct simplex returns, on the same kept
    index with the same value.
    """
    if len(layout.rows) != len(rhs):
        raise ParameterError("one right-hand side per constraint vector required")
    if layout.diagonal is not None:
        u = {i: r / c for (i, c), r in zip(layout.diagonal, rhs) if r}
        return WindowVector.sparse(layout.lo, layout.hi, u), sum(map(abs, u.values()), ZERO)
    n = len(layout.kept)
    x, val = simplex_min([1] * (2 * n), layout.rows, rhs)
    # a basic solution has no more nonzeros than there are constraints
    u = {i: p - q for i, p, q in zip(layout.kept, x, x[n:]) if p != q}
    return WindowVector.sparse(layout.lo, layout.hi, u), val


def max_linear(objective, constraint_rows):
    """Maximize objective.x over {x : |row.x| <= 1 for each row}.

    Returns (value, witness x).  The feasible start x = 0 lets us skip
    phase 1.  Raises UnboundedError when the improving direction escapes
    the (possibly lower-dimensional-unbounded) constraint set.
    """
    d = len(objective)
    m = len(constraint_rows)
    if d == 0:
        return ZERO, []
    # variables: p(d), q(d), s(m), t(m); rows: R(p-q)+s=1, -R(p-q)+t=1
    ncols = 2 * d + 2 * m
    plus, minus = [], []
    for k, row in enumerate(constraint_rows):
        ints, den = linalg.int_row(row)
        neg = [-x for x in ints]
        plus.append((ints + neg + [0] * (2 * m) + [den], den))
        plus[k][0][2 * d + k] = den
        minus.append((neg + ints + [0] * (2 * m) + [den], den))
        minus[k][0][2 * d + m + k] = den
    tab = plus + minus
    basis = list(range(2 * d, ncols))
    ints, den = linalg.int_row(objective)
    cost = ([-x for x in ints] + ints + [0] * (2 * m + 1), den)
    val = _run_simplex(tab, basis, cost)
    x = _basic_values(tab, basis, ncols)
    witness = [x[j] - x[d + j] for j in range(d)]
    return -val, witness


def sign_normalized(row: tuple):
    """The one of row and -row whose first nonzero entry is positive; None
    for a zero row."""
    lead = next((v for v in row if v), None)
    if lead is None:
        return None
    return row if lead > 0 else tuple(-v for v in row)


def _distinct_up_to_sign(rows):
    """(index, row as a tuple) for each nonzero row that is neither an
    earlier row nor its negative, in order.  A row is keyed by its sign-
    normalized form."""
    seen = set()
    for i, row in enumerate(rows):
        row = tuple(row)
        key = sign_normalized(row)
        if key is not None and key not in seen:
            seen.add(key)
            yield i, row


def _dedup_rows(rows):
    """Drop zero rows and duplicate rows up to sign."""
    return [row for _, row in _distinct_up_to_sign(rows)]


def polyhedral_max(objective_rows, constraint_rows):
    """max over {x : |c.x| <= 1 for all constraint rows} of max_i |o_i.x|.

    Both families are deduped up to sign first.  Raises UnboundedError
    when the constraint rows do not have full rank (ball unbounded).
    Returns (value, witness x, objective row index attaining it).
    """
    constraint_rows = _dedup_rows(constraint_rows)
    objective_rows = [tuple(r) for r in objective_rows]
    dims = {len(r) for r in objective_rows} | {len(r) for r in constraint_rows}
    if len(dims) > 1:
        raise ValueError("mixed row dimensions")
    d = dims.pop() if dims else 0
    if d == 0:
        return ZERO, [], None
    if rank(constraint_rows) < d:
        raise UnboundedError("constraint rows are rank deficient; the ball is unbounded")
    best = ZERO
    best_x = [ZERO] * d
    best_i = None
    for i, obj in _distinct_up_to_sign(objective_rows):
        val, x = max_linear(list(obj), constraint_rows)
        if val > best:
            best, best_x, best_i = val, x, i
    return best, best_x, best_i
