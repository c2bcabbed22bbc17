"""Exact rational simplex and the polyhedral-norm maximization built on it.

Bland's rule everywhere, so pivoting terminates and every run is a
deterministic function of its input.  The optimum of a linear functional
over a bounded polytope is attained at a basic feasible point, i.e. at a
vertex; the terminal tableau's nonnegative reduced costs are the
optimality certificate.
"""

from __future__ import annotations

from .errors import InfeasibleError, UnboundedError
from .linalg import ONE, ZERO, RMatrix, WindowVector, pivot, rank


def _pivot(tab, basis, r, c):
    pivot(tab, r, c)
    basis[r] = c


def _run_simplex(tab, basis, cost, allowed):
    """Minimize cost over the tableau in place. Returns the objective value.

    While it runs, the reduced-cost row rides below the constraint rows,
    so each pivot step updates it too."""
    m = len(tab)
    if m == 0:
        return ZERO
    ncols = len(tab[0]) - 1
    tab.append(list(cost) + [ZERO])
    # price out the basis: basic columns are unit columns, so each step
    # changes only the reduced-cost row
    for r, bvar in enumerate(basis):
        if tab[m][bvar] != 0:
            pivot(tab, r, bvar)
    while True:
        z = tab[m]
        enter = None
        for j in range(ncols):
            if allowed[j] and z[j] < 0:
                enter = j
                break  # Bland: smallest index
        if enter is None:
            del tab[m]
            return sum((cost[basis[r]] * tab[r][-1] for r in range(m)), ZERO)
        leave = None
        best = None
        for r in range(m):
            a = tab[r][enter]
            if a > 0:
                ratio = tab[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave is None:
            raise UnboundedError("objective unbounded below")
        _pivot(tab, basis, leave, enter)


def simplex_min(cost, a_rows, b):
    """Minimize cost.x subject to (a_rows)x = b, x >= 0.

    Returns (x, value).  Raises InfeasibleError / UnboundedError.
    """
    m = len(a_rows)
    n = len(cost)
    tab = []
    for row, rhs in zip(a_rows, b):
        row = list(row)
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        tab.append(row + [ZERO] * m + [rhs])
    # phase 1: artificial variables n .. n+m-1
    for r in range(m):
        tab[r][n + r] = ONE
    basis = [n + r for r in range(m)]
    allowed = [True] * (n + m)
    cost1 = [ZERO] * n + [ONE] * m
    val1 = _run_simplex(tab, basis, cost1, allowed)
    if val1 != 0:
        raise InfeasibleError("equality system is inconsistent")
    # drive artificials out of the basis
    drop = []
    for r in range(m):
        if basis[r] >= n:
            piv = next((j for j in range(n) if tab[r][j] != 0), None)
            if piv is None:
                drop.append(r)
            else:
                _pivot(tab, basis, r, piv)
    for r in sorted(drop, reverse=True):
        del tab[r]
        del basis[r]
    tab = [row[:n] + [row[-1]] for row in tab]
    allowed = [True] * n
    val = _run_simplex(tab, basis, list(cost), allowed)
    x = [ZERO] * n
    for r, bvar in enumerate(basis):
        x[bvar] = tab[r][-1]
    return x, val


def lp_min_l1(a: RMatrix, b: WindowVector):
    """Minimize ||u||_1 subject to A u = b, exactly.

    u lives on A's column window; the split u = u+ - u- turns the problem
    into a standard-form LP with unit costs.
    """
    n = a.n_cols
    m = a.n_rows
    rows = []
    rhs = []
    for i in range(a.row_lo, a.row_hi):
        arow = [ZERO] * n
        for j, v in a.rows.get(i, {}).items():
            arow[j - a.col_lo] = v
        rows.append(arow + [-x for x in arow])
        rhs.append(b.value(i))
    if m == 0 or n == 0:
        if any(v != 0 for v in rhs):
            raise InfeasibleError("nonzero rhs with no variables")
        return WindowVector.zero(a.col_lo, a.col_hi), ZERO
    cost = [ONE] * (2 * n)
    x, val = simplex_min(cost, rows, rhs)
    u = tuple(x[j] - x[n + j] for j in range(n))
    return WindowVector(a.col_lo, a.col_hi, u), val


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
    tab = []
    basis = []
    for k, row in enumerate(constraint_rows):
        r = list(row) + [-x for x in row] + [ZERO] * (2 * m) + [ONE]
        r[2 * d + k] = ONE
        tab.append(r)
        basis.append(2 * d + k)
    for k, row in enumerate(constraint_rows):
        r = [-x for x in row] + list(row) + [ZERO] * (2 * m) + [ONE]
        r[2 * d + m + k] = ONE
        tab.append(r)
        basis.append(2 * d + m + k)
    cost = [-x for x in objective] + list(objective) + [ZERO] * (2 * m)
    allowed = [True] * ncols
    val = _run_simplex(tab, basis, cost, allowed)
    x = [ZERO] * ncols
    for r, bvar in enumerate(basis):
        x[bvar] = tab[r][-1]
    witness = [x[j] - x[d + j] for j in range(d)]
    return -val, witness


def _dedup_rows(rows):
    """Drop zero rows and duplicate rows up to sign."""
    seen = set()
    out = []
    for row in rows:
        row = tuple(row)
        if all(v == 0 for v in row):
            continue
        neg = tuple(-v for v in row)
        if row in seen or neg in seen:
            continue
        seen.add(row)
        out.append(row)
    return out


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
    if rank([list(r) for r in constraint_rows]) < d:
        raise UnboundedError("constraint rows are rank deficient; the ball is unbounded")
    best = ZERO
    best_x = [ZERO] * d
    best_i = None
    seen = set()
    for i, obj in enumerate(objective_rows):
        key = obj if obj >= tuple(-v for v in obj) else tuple(-v for v in obj)
        if key in seen or all(v == 0 for v in obj):
            continue
        seen.add(key)
        val, x = max_linear(list(obj), constraint_rows)
        if val > best:
            best, best_x, best_i = val, x, i
    return best, best_x, best_i
