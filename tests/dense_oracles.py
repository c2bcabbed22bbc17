"""Dense reference versions of the exact kernels, kept as test oracles.

These are the elimination and simplex routines as they were before the
library's kernels learned to skip zero entries: every row update runs
over every column and every pivot row is divided, even by 1.  The tests
require the library's kernels to return the same values, the same pivot
columns and the same simplex pivot sequence.  `simplex_min` and
`max_linear` here run on a `Fraction` tableau, as the library's did
before its tableau held integers over row denominators.  The `matrix_*`
functions do the `RMatrix` algebra on dense lists of Fractions, as it was
before each row was stored as integers over a row denominator.

The certified-set kernels are kept the same way, as they were before
their cost followed the size of a set's description: the normal form
tries every divisor of the modulus and pulls the threshold down one step
at a time, and a Boolean operation scans every residue modulo the lcm
and every point below the larger threshold.  The tests require
`CertSet` to give the same (threshold, modulus, residues, below).

The pairwise certificates of a family are kept as the loop that made
them before they were found in one pass: one `CertSet.almost_disjoint`
per pair, in (i, j) order.

The canonical form of a tail vector is kept as it was before one
prefix-function pass found its period: a scan over every divisor of the
period's length, and one rotation per absorbed prefix entry.

The two tails norms are kept as they were before a span carried its
period rows as classes up to sign: `pi_section_norm` with every period
row as a constraint and an objective, and `r_operator_inverse_norm`
with every period row as an objective and every row of the window, to
one period past its start and the prefix, as a constraint, always
through the LP.

Eventual equality of two tail vectors is kept as it is defined: their
values compared one index at a time past the larger prefix, over the lcm
of the periods, where both repeat.

The l1-minimal interpolant `lp_min_l1` is kept as it was before it laid
out only the distinct columns of its vectors: one u+ and one u- column
per window index, zero and repeated columns included, solved here on the
`Fraction` tableau.  Rows are deduped up to sign as they were before each
row was keyed by its sign-normalized form: each kept row and its negation
go into the seen set.

The `RMatrix` constructor is kept as it was before it read each entry as
an integer pair: every entry coerced to a reduced Fraction through
`frac`, its zeros dropped, and the rest put over the lcm of their
denominators.

The dot product of two vectors is a loop over every index their windows
share; the library has none, and the tests check the interpolation
conditions of Hahn-Banach extensions with it.  The coefficients of a
vector in a subspace's basis come from one dense solve, None outside the
span, as `Subspace.coefficients` gave them before the library dropped
them.  The image of a vector under a `LinMap` is its coefficients in the
domain basis combined with the images, one index at a time; the library
never needs it, and the tests check the witnesses of `op_norm` and
`lower_bound` with it.
`from_dense` and `to_dense` build a matrix from dense rows through the
checked constructor and read it back through `get`, for the tests that
state a matrix densely.

The block checker of `forcing` is kept as it was before one pass over
the integer rows decided a block: `check_block` copies the block and
its inverse out with `RMatrix.block`, compares their product with a
fresh identity, and applies each committed f-window densely, through
`matrix_apply`, to compare it with the g-window coordinate by
coordinate.

`rmatrix_add`, `rmatrix_sub` and `rmatrix_scale` are the `RMatrix`
sums as the library had them, on the integer rows, before
`linalg.extension_block` built each extension block row by row and
nothing else read them; `extension_formula` is that block through them
and `matmul`, and `projection_parts` forms the projection P = B Psi that
the library now reads only for its norm.

`extend_isomorphism` is kept as it was before it read coordinate
complements off the projection functionals and built w by one factored
formula: both kernels through `kernel_of_functionals`, matched by
`complement_iso` and rescaled by `balanced_rescale`, then
w = T Psi_1 + Q E_1 (I - P_1) and w^-1 = B_1 Psi_2 + Q' E_2 (I - P_2) with
the n x n matrices I - P_k formed, and w = t checked one basis vector at
a time.  Its `complement_iso` keeps the stage the library dropped in
front of the library's: equal spans, found by one containment solve per
basis vector, give the identity.

Vertex enumeration of a symmetric polytope, the dual norm it gives, and
the kernel of a dense idempotent matrix are independent oracles for the
simplex-based norms and the functional kernels of `geometry`; the
library itself never enumerates vertices.
"""

from itertools import combinations, product
from math import lcm

from qforge import forcing, geometry, linalg
from qforge.errors import (
    InfeasibleError,
    NormBudgetError,
    NotAlmostDisjointError,
    NotInvertibleError,
    ParameterError,
    QForgeError,
    SingularMatrixError,
    UnboundedError,
)
from qforge.geometry import (
    ExtensionResult,
    LinMap,
    Subspace,
    balanced_rescale,
    kernel_of_functionals,
)
from qforge.linalg import (
    ONE,
    ZERO,
    RMatrix,
    WindowVector,
    coordinate_rows,
    frac,
    int_row,
    op_norm_inf,
)
from qforge.simplex import _dedup_rows, polyhedral_max


class DimensionCapError(QForgeError):
    """vertex_enumerate was asked to run above its dimension cap."""


def dot(v, w):
    """sum v_i w_i over the indices both windows share, one index at a time."""
    return sum((v.value(i) * w.value(i)
                for i in range(max(v.lo, w.lo), min(v.hi, w.hi))), ZERO)


def coefficients(y, v):
    """The coefficients of v in y's basis, or None if v is outside the span."""
    if any(not y.lo <= i < y.hi for i, _ in v.items()):
        return None
    return solve_exact(coordinate_rows(y.basis, y.lo, y.hi), v.window(y.lo, y.hi))


def image(t, v):
    """T v for the map t: v's coefficients in t's domain basis, combined
    with t's images one index at a time."""
    coeffs = coefficients(t.domain, v)
    assert coeffs is not None, "v lies outside the domain span"
    lo, hi = t.images[0].lo, t.images[0].hi
    return WindowVector(lo, hi, tuple(
        sum((c * w.value(i) for c, w in zip(coeffs, t.images)), ZERO)
        for i in range(lo, hi)))


def rref(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def invert(m):
    if not m.is_square():
        raise ParameterError("invert requires a square window matrix")
    return from_dense(matrix_inverse(to_dense(m)), m.row_lo, m.col_lo)


# -- RMatrix operations on dense Fraction lists --------------------------

def from_dense(entries, row_lo=0, col_lo=0):
    """The RMatrix of dense rows, through the checked constructor."""
    return RMatrix(row_lo, row_lo + len(entries),
                   col_lo, col_lo + (len(entries[0]) if entries else 0),
                   {row_lo + i: {col_lo + j: v for j, v in enumerate(r)}
                    for i, r in enumerate(entries)})


def to_dense(m):
    """m's entries as dense rows of Fractions, read through `get`."""
    return [[m.get(i, j) for j in range(m.col_lo, m.col_hi)]
            for i in range(m.row_lo, m.row_hi)]


def matrix_rows(rows):
    """The canonical rows {i: ({col: int}, den)} of the {i: {j: value}}
    entries: each value through `frac`, the zeros dropped, and each row
    over the lcm of its denominators."""
    out = {}
    for i, row in rows.items():
        nz = {}
        for j, v in row.items():
            v = frac(v)
            if v:
                nz[j] = v
        if nz:
            ints, den = int_row(list(nz.values()))
            out[i] = dict(zip(nz, ints)), den
    return out


def rmatrix_add(a, b):
    """a + b for RMatrices on one window, on the integer rows, as
    `RMatrix.add` did before `linalg.extension_block` built the extension
    without it."""
    if a.window != b.window:
        raise ParameterError("windows do not match")
    rows = dict(a._rows)
    for i, (orow, oden) in b._rows.items():
        if i not in rows:
            rows[i] = orow, oden
            continue
        row, den = rows.pop(i)
        common = lcm(den, oden)
        s, t = common // den, common // oden
        acc = {j: x * s for j, x in row.items()} if s != 1 else dict(row)
        get = acc.get
        for j, y in orow.items():
            acc[j] = get(j, 0) + y * t
        r = linalg._canonical(acc, common)
        if r:
            rows[i] = r
    return linalg._matrix(*a.window, rows)


def rmatrix_scale(a, s):
    """s a for an RMatrix a, on the integer rows, as `RMatrix.scale` did."""
    s = frac(s)
    p, q = s.numerator, s.denominator
    if q == 1 and p in (1, -1):
        rows = {i: ({j: p * x for j, x in row.items()}, den)
                for i, (row, den) in a._rows.items()}
    elif p:
        rows = {i: linalg._canonical({j: p * x for j, x in row.items()}, den * q)
                for i, (row, den) in a._rows.items()}
    else:
        rows = {}
    return linalg._matrix(*a.window, rows)


def rmatrix_sub(a, b):
    return rmatrix_add(a, rmatrix_scale(b, -1))


def extension_formula(b_to, r, b_from, psi):
    """(b_to - r b_from) psi + r through `matmul` and the sums above: the
    generic algebra that `linalg.extension_block` replaced."""
    return rmatrix_add(rmatrix_sub(b_to, r.matmul(b_from)).matmul(psi), r)


def projection_parts(y):
    """(P, Psi) for the projection P = B Psi onto y: Psi from
    `geometry._projection_norm`, and P formed by `matmul`, as the library
    formed it before it read |P| off B and Psi."""
    psi = geometry._projection_norm(y)[1]
    if y.dim == 0:
        return RMatrix(y.lo, y.hi, y.lo, y.hi, {}), psi
    return y.basis_matrix.matmul(psi), psi


def matrix_product(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), ZERO)
             for j in range(len(b[0]))] for row in a]


def matrix_sum(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def matrix_scale(a, s):
    return [[s * x for x in row] for row in a]


def matrix_apply(m, v):
    """m v on m's row window: each coordinate a sum over m's column window
    of m's entries, read through `get`, times v's values, one index at a
    time (v is zero off its window)."""
    return WindowVector(m.row_lo, m.row_hi, tuple(
        sum((m.get(i, j) * v.value(j) for j in range(m.col_lo, m.col_hi)), ZERO)
        for i in range(m.row_lo, m.row_hi)))


def matrix_norm_inf(a):
    return max((sum(map(abs, row), ZERO) for row in a), default=ZERO)


def matrix_inverse(a):
    """Gauss-Jordan on [a | I], dividing every pivot row."""
    n = len(a)
    a = [list(row) for row in a]
    inv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular at column %d" % col)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        if p != 1:
            a[col] = [x / p for x in a[col]]
            inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def nullspace(rows, ncols):
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for r, p in enumerate(pivots):
            vec[p] = -red[r][f]
        basis.append(vec)
    return basis


def solve_exact(rows, rhs):
    if not rows:
        return [] if all(v == 0 for v in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    for r in red:
        if all(x == 0 for x in r[:ncols]) and r[ncols] != 0:
            return None
    sol = [ZERO] * ncols
    for r, p in enumerate(pivots):
        if p == ncols:
            return None
        sol[p] = red[r][ncols]
    return sol


def _pivot(tab, basis, r, c):
    piv = tab[r][c]
    tab[r] = [x / piv for x in tab[r]]
    for i in range(len(tab)):
        if i != r and tab[i][c] != 0:
            f = tab[i][c]
            tab[i] = [x - f * y for x, y in zip(tab[i], tab[r])]
    basis[r] = c


def _run_simplex(tab, basis, cost, allowed):
    m = len(tab)
    if m == 0:
        return ZERO
    ncols = len(tab[0]) - 1
    z = list(cost) + [ZERO]
    for r, bvar in enumerate(basis):
        if z[bvar] != 0:
            f = z[bvar]
            z = [x - f * y for x, y in zip(z, tab[r])]
    while True:
        enter = None
        for j in range(ncols):
            if allowed[j] and z[j] < 0:
                enter = j
                break
        if enter is None:
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
        f = z[enter]
        if f != 0:
            z = [x - f * y for x, y in zip(z, tab[leave])]


def simplex_min(cost, a_rows, b):
    m = len(a_rows)
    n = len(cost)
    tab = []
    for row, rhs in zip(a_rows, b):
        row = list(row)
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        tab.append(row + [ZERO] * m + [rhs])
    for r in range(m):
        tab[r][n + r] = ONE
    basis = [n + r for r in range(m)]
    allowed = [True] * (n + m)
    cost1 = [ZERO] * n + [ONE] * m
    val1 = _run_simplex(tab, basis, cost1, allowed)
    if val1 != 0:
        raise InfeasibleError("equality system is inconsistent")
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


def lp_min_l1(vectors, rhs):
    """Minimize ||u||_1 subject to <u, v_k> = rhs_k for each vector v_k,
    exactly.

    u lives on the vectors' common window; the split u = u+ - u- turns
    the problem into a standard-form LP with unit costs, whose row k is
    [v_k | -v_k], laid out from v_k's nonzeros with int zeros between.
    """
    if not vectors or len(vectors) != len(rhs):
        raise ParameterError("one right-hand side per constraint vector required")
    lo, hi = vectors[0].lo, vectors[0].hi
    if any((v.lo, v.hi) != (lo, hi) for v in vectors):
        raise ParameterError("constraint vector windows differ")
    n = hi - lo
    rows = []
    for v in vectors:
        row = [0] * (2 * n)
        for i, c in v.items():
            row[i - lo], row[n + i - lo] = c, -c
        rows.append(row)
    x, val = simplex_min([1] * (2 * n), rows, rhs)
    u = tuple(p - q if p or q else ZERO for p, q in zip(x, x[n:]))
    return WindowVector(lo, hi, u), val


def distinct_up_to_sign(rows):
    """[(index, row as a tuple)] for each nonzero row that is neither an
    earlier kept row nor its negative, in order."""
    seen = set()
    out = []
    for i, row in enumerate(rows):
        row = tuple(row)
        if row in seen or not any(row):
            continue
        seen.update((row, tuple(-v for v in row)))
        out.append((i, row))
    return out


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


def certset_minimize(threshold, modulus, residues, below):
    # smallest modulus: a divisor m of modulus with m-periodic residues
    for m in sorted(d for d in range(1, modulus + 1) if modulus % d == 0):
        res_m = {r % m for r in residues}
        if all((r % m in res_m) == (r in residues) for r in range(modulus)):
            modulus, residues = m, frozenset(res_m)
            break
    # smallest threshold: pull it down while the rule already agrees
    t = threshold
    while t > 0 and ((t - 1) in below) == ((t - 1) % modulus in residues):
        t -= 1
    below = frozenset(x for x in below if x < t)
    if any(x < 0 for x in below):
        raise ParameterError("negative elements are not allowed")
    return t, modulus, residues, below


def certset_normal_form(threshold, modulus, residues, below):
    """The (threshold, modulus, residues, below) that CertSet stores."""
    if modulus < 1 or threshold < 0:
        raise ParameterError("bad normal form parameters")
    return certset_minimize(threshold, modulus,
                            frozenset(x % modulus for x in residues),
                            frozenset(below))


def certset_combine(a, b, op):
    """The normal form of {n : op(n in a, n in b)} for CertSets a and b."""
    m = lcm(a.modulus, b.modulus)
    t = max(a.threshold, b.threshold)
    residues = frozenset(r for r in range(m)
                         if op(r % a.modulus in a.residues,
                               r % b.modulus in b.residues))
    below = frozenset(x for x in range(t) if op(x in a, x in b))
    return certset_normal_form(t, m, residues, below)


def certset_finite_part(form):
    """(True, sorted elements) for a finite normal form, else (False, None)."""
    _, _, residues, below = form
    return (False, None) if residues else (True, sorted(below))


def certset_eq_star(a, b):
    return certset_finite_part(certset_combine(a, b, lambda x, y: x != y))


def certset_subset_star(a, b):
    return certset_finite_part(certset_combine(a, b, lambda x, y: x and not y))


def certset_almost_disjoint(a, b):
    t, m, residues, below = certset_combine(a, b, lambda x, y: x and y)
    if residues:
        r = min(residues)
        a0 = t + ((r - t) % m)
        raise NotAlmostDisjointError(
            "intersection contains the progression {%d + %d k}" % (a0, m),
            witness=(a0, m))
    return sorted(below)


def pairwise_certificates(sets):
    """{(i, j): sets[i].almost_disjoint(sets[j])} for i < j, in that order;
    the first pair that fails raises its error."""
    certs = {}
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            certs[(i, j)] = sets[i].almost_disjoint(sets[j])
    return certs


def minimal_period(pattern):
    """The shortest prefix that repeats to the whole pattern, found by
    trying every divisor of its length."""
    n = len(pattern)
    for p in range(1, n + 1):
        if n % p == 0 and all(pattern[i] == pattern[i % p] for i in range(n)):
            return pattern[:p]
    return pattern


def tail_canonical_form(prefix, period):
    """The (prefix, period) a TailVector stores: a minimal period, and
    each trailing prefix entry that matches absorbed by one rotation."""
    prefix, period = list(prefix), list(minimal_period(tuple(period)))
    while prefix and prefix[-1] == period[-1]:
        prefix.pop()
        period = [period[-1]] + period[:-1]
    return tuple(prefix), tuple(minimal_period(tuple(period)))


def tails_agree_from(f, g, n):
    """f = g on [n, infinity), value by value up to one common period
    past n and both prefixes."""
    end = max(n, f.prefix_len, g.prefix_len) + lcm(f.period_len, g.period_len)
    return all(f.value(i) == g.value(i) for i in range(n, end))


def tails_eq_star(f, g):
    """(f = g past the larger prefix?, the indices below it where not)."""
    m = max(f.prefix_len, g.prefix_len)
    if not tails_agree_from(f, g, m):
        return False, None
    return True, [i for i in range(m) if f.value(i) != g.value(i)]


def pi_section_norm(span, n):
    """The section norm with every period row of the span as a constraint
    and as an objective, and the prefix rows of [n, m) as objectives."""
    if n >= span.m:
        return ONE
    rows = coordinate_rows(span.tails, span.m, span.m + span.p)
    val, _, _ = polyhedral_max(coordinate_rows(span.tails, n, span.m) + rows, rows)
    return val


def r_operator_inverse_norm(span, n, n_prime):
    """The restriction-inverse norm with every period row of the span as
    an objective and every row of the window, to one period past n and
    the prefix, as a constraint."""
    end = min(n_prime, max(n, span.m) + span.p)
    try:
        val, _, _ = polyhedral_max(
            coordinate_rows(span.tails, span.m, span.m + span.p),
            coordinate_rows(span.tails, n, end))
    except UnboundedError:
        raise NotInvertibleError(
            "restriction to [%d, %d) is not injective on the span"
            % (n, n_prime)) from None
    return val


DEFAULT_DIM_CAP = 6


def vertex_enumerate(constraint_rows, dim=None, cap=DEFAULT_DIM_CAP):
    """All vertices of {x : |row . x| <= 1 for each constraint row}.

    Every vertex is the unique solution of d active constraints at levels
    +-1, so d-subsets of the deduped rows and sign vectors are tried.
    This is exponential in the dimension, hence the hard cap.  Returns a
    deterministically sorted list of coordinate tuples; raises
    UnboundedError when the rows are rank deficient and DimensionCapError
    above the dimension cap.
    """
    rows = _dedup_rows(constraint_rows)
    if dim is None:
        if not rows:
            raise UnboundedError("no constraint rows")
        dim = len(rows[0])
    if dim > cap:
        raise DimensionCapError(
            "vertex enumeration capped at dimension %d (asked for %d)" % (cap, dim))
    if linalg.rank(rows) < dim:
        raise UnboundedError("constraint rows are rank deficient; the ball is unbounded")
    verts = set()
    for subset in combinations(range(len(rows)), dim):
        sub = [list(rows[i]) for i in subset]
        if linalg.rank(sub) < dim:
            continue
        # fixing the first active level to +1 halves the search; -x is
        # added alongside x below since the polytope is symmetric
        for signs in product((ONE, -ONE), repeat=dim - 1):
            sol = solve_exact(sub, [ONE] + list(signs))
            if sol is None:
                continue
            x = tuple(sol)
            if any(abs(sum(a * b for a, b in zip(r, x))) > 1 for r in rows):
                continue
            verts.add(x)
            verts.add(tuple(-v for v in x))
    return sorted(verts)


def dual_norm(y, phi_values):
    """Dual norm of phi on y, by vertex enumeration of the unit ball of y
    in coefficient space."""
    phi_values = [frac(p) for p in phi_values]
    if y.dim == 0 or all(p == 0 for p in phi_values):
        return ZERO
    verts = vertex_enumerate(coordinate_rows(y.basis, y.lo, y.hi), dim=y.dim)
    return max(abs(sum(c * p for c, p in zip(v, phi_values))) for v in verts)


def kernel_subspace(p, lo, hi):
    """Kernel of an idempotent matrix p on [lo, hi), as a Subspace."""
    rows = [[p.get(i, j) for j in range(lo, hi)] for i in range(lo, hi)]
    return Subspace(lo, hi, tuple(linalg.kernel_basis(rows, lo, hi)))


def _partial_matrix(image_cols, coeff_rows, lo, hi):
    """(columns of images) . (coefficient rows), as an n x n matrix."""
    if not image_cols:
        return RMatrix(lo, hi, lo, hi, {})
    return RMatrix.from_columns(list(image_cols)).matmul(coeff_rows)


def complement_iso(z1, z2, budget):
    """`geometry.complement_iso` behind its earlier stage 0: when every
    basis vector of z1 lies in z2 (at dimension at most 12), the identity
    on z1, if the budget admits it."""
    if 0 < z1.dim <= 12 and z1.dim == z2.dim and all(
            coefficients(z2, v) is not None for v in z1.basis):
        q = LinMap(z1, z1.basis)
        if q.lower() > 0 and q.norm() / q.lower() <= frac(budget) ** 2:
            return q
    return geometry.complement_iso(z1, z2, budget)


def check_block(m, inv, lo, hi, a, families, c2):
    """`forcing._check_block` through block copies, a product against the
    identity and a dense apply per committed index: (failures, the
    block's norm, its inverse's norm)."""
    def form(mat):
        return ["(ii) entry (%d, %d) outside the block form" % (i, j)
                for i in range(lo, hi) for j in mat.columns(i) if not lo <= j < hi]
    b, binv = m.block(lo, hi), inv.block(lo, hi)
    norm, inv_norm = op_norm_inf(b), op_norm_inf(binv)
    out = form(m)
    if form(inv) or not b.matmul(binv).equals(RMatrix.identity(lo, hi)):
        out.append("(b) carried inverse fails M * inv = I")
    for name, value in (("matrix", norm), ("inverse", inv_norm)):
        if value > c2:
            out.append("(b) %s norm %s exceeds c2 = %s" % (name, value, c2))
    for xi in a:
        if xi not in families.indices:
            out.append("(iv) index %s outside the families" % (xi,))
            continue
        got = matrix_apply(b, families.f(xi).restrict(lo, hi))
        want = families.g(xi).restrict(lo, hi)
        if got != want:
            i = next(i for i in range(lo, hi) if got.value(i) != want.value(i))
            out.append("(iv) xi = %s fails at coordinate %d: %s != %s"
                       % (xi, i, got.value(i), want.value(i)))
    out += forcing._section_failures(families.spans(a), hi)
    return ["block [%d, %d): %s" % (lo, hi, f) for f in out], norm, inv_norm


def extend_isomorphism(t, config):
    """`geometry.extend_isomorphism` through the complement search on
    every instance, with I - P_1 and I - P_2 formed."""
    y1 = t.domain
    h = y1.dim
    n = y1.hi - y1.lo
    if any(not (y1.lo <= i < y1.hi) for w in t.images for i in w.support()):
        raise ParameterError("domain and image must share the ambient window")
    t = LinMap(y1, tuple(w.restrict(y1.lo, y1.hi) for w in t.images))
    y2 = Subspace(y1.lo, y1.hi, t.images)
    if h * h > config.c1 * config.c1 * n:
        raise ParameterError("subspace dimension exceeds c1 * sqrt(n)")
    report = {}
    up, low = t.norm(), t.lower()
    if low == 0:
        raise SingularMatrixError("map has a kernel; distortion is infinite")
    report["distortion_T"] = up / low
    if up >= config.rho or ONE / low >= config.rho:
        raise NormBudgetError("T norms must stay below rho", measured=(up, ONE / low))
    p1, psi1 = projection_parts(y1)
    p2, psi2 = projection_parts(y2)
    report["norm_P1"] = op_norm_inf(p1)
    report["norm_P2"] = op_norm_inf(p2)
    eye = RMatrix.identity(y1.lo, y1.hi)
    z1 = kernel_of_functionals(psi1)
    z2 = kernel_of_functionals(psi2)
    if z1.dim == 0:
        r = LinMap(z1, ())
    else:
        q = complement_iso(z1, z2, config.rho)
        report["distortion_Q"] = q.norm() / q.lower()
        r = balanced_rescale(q, config.delta)
    extz1 = r.domain.coefficient_extractor()
    w = rmatrix_add(_partial_matrix(t.images, psi1, y1.lo, y1.hi),
                    _partial_matrix(r.images, extz1.matmul(rmatrix_sub(eye, p1)),
                                    y1.lo, y1.hi))
    ext_rz = Subspace(y1.lo, y1.hi, tuple(r.images)).coefficient_extractor()
    w_inv = rmatrix_add(_partial_matrix(y1.basis, psi2, y1.lo, y1.hi),
                        _partial_matrix(r.domain.basis, ext_rz.matmul(rmatrix_sub(eye, p2)),
                                        y1.lo, y1.hi))
    if not w.matmul(w_inv).equals(eye):
        raise NormBudgetError("extension inverse verification failed")
    for v, img in zip(y1.basis, t.images):
        if matrix_apply(w, v) != img:
            raise NormBudgetError("extension does not agree with t on the basis")
    norm_w = op_norm_inf(w)
    norm_w_inv = op_norm_inf(w_inv)
    if norm_w > config.c2 or norm_w_inv > config.c2:
        raise NormBudgetError("extension norm exceeds c2",
                              measured=(norm_w, norm_w_inv))
    return ExtensionResult(w, w_inv, norm_w, norm_w_inv, report)
