"""Exact rational vectors and matrices on integer index windows.

Everything is a pure function over immutable values; scalars are
`fractions.Fraction` at every interface and no operation ever rounds.
Elimination runs on integer rows (ints, den) through `pivot`, the one
Gauss-Jordan step behind rref, rank, inverses, kernels, solves and the
simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import ParameterError, SingularMatrixError

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints / strings like ``"3/4"`` to Fraction, exactly; a float
    or anything that is not a rational raises ParameterError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise ParameterError("floats are not allowed; pass ints, Fractions or 'p/q' strings")
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise ParameterError("not a rational number: %r" % (x,)) from e


def _check_window(lo: int, hi: int):
    if hi < lo:
        raise ParameterError("window [%d, %d) is inverted" % (lo, hi))


_setattr = object.__setattr__


def _vector(lo: int, hi: int, nz: dict) -> "WindowVector":
    """A WindowVector on a checked window from trusted nonzeros: nonzero
    Fractions at indices inside [lo, hi), in increasing index order."""
    v = object.__new__(WindowVector)
    v._init(lo, hi, nz, None)
    return v


class WindowVector:
    """Rational coordinates on a half-open window [lo, hi).

    Only the nonzero coordinates are stored, as a map index -> Fraction in
    increasing index order; the dense ``coords`` tuple is built on first
    use.  Instances are never mutated, so the sup norm and the support
    are computed at most once.  Two vectors are equal when they have the
    same window and the same coordinates.
    """

    __slots__ = ("lo", "hi", "_nz", "_coords", "_sup", "_support")

    def __init__(self, lo: int, hi: int, coords):
        _check_window(lo, hi)
        coords = tuple(frac(c) for c in coords)
        if len(coords) != hi - lo:
            raise ParameterError("coordinate count does not match window length")
        self._init(lo, hi, {lo + k: c for k, c in enumerate(coords) if c}, coords)

    def _init(self, lo, hi, nz, coords):
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)
        _setattr(self, "_nz", nz)
        _setattr(self, "_coords", coords)
        _setattr(self, "_sup", None)
        _setattr(self, "_support", None)

    def __setattr__(self, name, value):
        raise AttributeError("WindowVector is immutable")

    def __reduce__(self):
        return WindowVector, (self.lo, self.hi, self.coords)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi, self._nz) == (other.lo, other.hi, other._nz)

    def __hash__(self):
        return hash((self.lo, self.hi, frozenset(self._nz.items())))

    def __repr__(self):
        return "WindowVector(lo=%r, hi=%r, coords=%r)" % (self.lo, self.hi, self.coords)

    @staticmethod
    def zero(lo: int, hi: int) -> "WindowVector":
        _check_window(lo, hi)
        return _vector(lo, hi, {})

    @staticmethod
    def unit(lo: int, hi: int, index: int) -> "WindowVector":
        _check_window(lo, hi)
        if not lo <= index < hi:
            raise ParameterError("index %d outside window [%d, %d)" % (index, lo, hi))
        return _vector(lo, hi, {index: ONE})

    @staticmethod
    def sparse(lo: int, hi: int, entries: dict) -> "WindowVector":
        """The vector on [lo, hi) with the given {index: value} entries
        and zeros elsewhere."""
        _check_window(lo, hi)
        nz = {}
        for i in sorted(entries):
            if not lo <= i < hi:
                raise ParameterError("index %d outside window [%d, %d)" % (i, lo, hi))
            c = frac(entries[i])
            if c:
                nz[i] = c
        return _vector(lo, hi, nz)

    @property
    def coords(self) -> tuple:
        if self._coords is None:
            dense = [ZERO] * (self.hi - self.lo)
            for i, c in self._nz.items():
                dense[i - self.lo] = c
            _setattr(self, "_coords", tuple(dense))
        return self._coords

    def items(self):
        """(index, value) pairs of the nonzero coordinates, in index order."""
        return self._nz.items()

    def value(self, i: int) -> Fraction:
        return self._nz.get(i, ZERO)

    def sup_norm(self) -> Fraction:
        if self._sup is None:
            _setattr(self, "_sup", max(map(abs, self._nz.values()), default=ZERO))
        return self._sup

    def l1_norm(self) -> Fraction:
        return sum(map(abs, self._nz.values()), ZERO)

    def support(self) -> frozenset:
        if self._support is None:
            _setattr(self, "_support", frozenset(self._nz))
        return self._support

    def restrict(self, lo: int, hi: int) -> "WindowVector":
        if (lo, hi) == (self.lo, self.hi):
            return self
        _check_window(lo, hi)
        return _vector(lo, hi, {i: c for i, c in self._nz.items() if lo <= i < hi})

    def scale(self, s) -> "WindowVector":
        s = frac(s)
        return _vector(self.lo, self.hi,
                       {i: s * c for i, c in self._nz.items()} if s else {})

    def add(self, other: "WindowVector") -> "WindowVector":
        nz = dict(self._nz)
        for i, c in other._nz.items():
            c += nz.pop(i, ZERO)
            if c:
                nz[i] = c
        return _vector(min(self.lo, other.lo), max(self.hi, other.hi),
                       dict(sorted(nz.items())))

    def sub(self, other: "WindowVector") -> "WindowVector":
        return self.add(other.scale(-1))

    def dot(self, other: "WindowVector") -> Fraction:
        a, b = sorted((self._nz, other._nz), key=len)
        return sum((c * b[i] for i, c in a.items() if i in b), ZERO)

    def is_zero(self) -> bool:
        return not self._nz


@dataclass(frozen=True)
class BlockLayout:
    """Strictly increasing cut points n_0 < ... < n_K."""

    cuts: tuple

    def __post_init__(self):
        cuts = tuple(int(c) for c in self.cuts)
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ParameterError("cut points must be strictly increasing")
        object.__setattr__(self, "cuts", cuts)

    def blocks(self):
        return list(zip(self.cuts, self.cuts[1:]))


@dataclass(frozen=True)
class RMatrix:
    """Sparse rational matrix on row window x column window.

    ``rows`` maps a row index to {col: nonzero Fraction}; missing entries
    are zero.  Instances are never mutated after construction.
    """

    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int
    rows: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for i, row in self.rows.items():
            if not (self.row_lo <= i < self.row_hi):
                raise ParameterError("row index %d outside window" % i)
            r = {}
            for j, v in row.items():
                if not (self.col_lo <= j < self.col_hi):
                    raise ParameterError("col index %d outside window" % j)
                v = frac(v)
                if v != 0:
                    r[j] = v
            if r:
                clean[i] = r
        object.__setattr__(self, "rows", clean)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_dense(entries: Sequence[Sequence], row_lo=0, col_lo=0) -> "RMatrix":
        entries = [list(r) for r in entries]
        n = len(entries)
        m = len(entries[0]) if entries else 0
        rows = {}
        for i, r in enumerate(entries):
            if len(r) != m:
                raise ParameterError("ragged rows")
            rows[row_lo + i] = {col_lo + j: frac(v) for j, v in enumerate(r) if frac(v) != 0}
        return RMatrix(row_lo, row_lo + n, col_lo, col_lo + m, rows)

    @staticmethod
    def identity(lo: int, hi: int) -> "RMatrix":
        return RMatrix(lo, hi, lo, hi, {i: {i: ONE} for i in range(lo, hi)})

    @staticmethod
    def from_columns(cols: Sequence[WindowVector], col_lo=0) -> "RMatrix":
        if not cols:
            raise ParameterError("no columns")
        lo, hi = cols[0].lo, cols[0].hi
        rows = {}
        for j, c in enumerate(cols):
            if (c.lo, c.hi) != (lo, hi):
                raise ParameterError("column windows differ")
            for i, v in c.items():
                rows.setdefault(i, {})[col_lo + j] = v
        return RMatrix(lo, hi, col_lo, col_lo + len(cols), rows)

    @staticmethod
    def from_rows_vectors(rws: Sequence[WindowVector], row_lo=0) -> "RMatrix":
        if not rws:
            raise ParameterError("no rows")
        lo, hi = rws[0].lo, rws[0].hi
        rows = {}
        for i, r in enumerate(rws):
            if (r.lo, r.hi) != (lo, hi):
                raise ParameterError("row windows differ")
            if not r.is_zero():
                rows[row_lo + i] = dict(r.items())
        return RMatrix(row_lo, row_lo + len(rws), lo, hi, rows)

    # -- queries ------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.row_hi - self.row_lo

    @property
    def n_cols(self) -> int:
        return self.col_hi - self.col_lo

    def get(self, i: int, j: int) -> Fraction:
        return self.rows.get(i, {}).get(j, ZERO)

    def to_dense(self):
        return [[self.get(i, j) for j in range(self.col_lo, self.col_hi)]
                for i in range(self.row_lo, self.row_hi)]

    def is_square(self) -> bool:
        return (self.row_lo, self.row_hi) == (self.col_lo, self.col_hi)

    # -- algebra ------------------------------------------------------
    def apply(self, v: WindowVector) -> WindowVector:
        x = v._nz
        nz = {}
        for i in sorted(self.rows):
            s = sum((a * x[j] for j, a in self.rows[i].items() if j in x), ZERO)
            if s:
                nz[i] = s
        return _vector(self.row_lo, self.row_hi, nz)

    def matmul(self, other: "RMatrix") -> "RMatrix":
        if (self.col_lo, self.col_hi) != (other.row_lo, other.row_hi):
            raise ParameterError("inner windows do not match")
        rows = {}
        for i, row in self.rows.items():
            acc = {}
            for j, a in row.items():
                orow = other.rows.get(j)
                if not orow:
                    continue
                for k, b in orow.items():
                    acc[k] = acc.get(k, ZERO) + a * b
            acc = {k: v for k, v in acc.items() if v != 0}
            if acc:
                rows[i] = acc
        return RMatrix(self.row_lo, self.row_hi, other.col_lo, other.col_hi, rows)

    def add(self, other: "RMatrix") -> "RMatrix":
        if self.window != other.window:
            raise ParameterError("windows do not match")
        rows = {}
        for i in set(self.rows) | set(other.rows):
            acc = dict(self.rows.get(i, {}))
            for j, v in other.rows.get(i, {}).items():
                acc[j] = acc.get(j, ZERO) + v
            acc = {j: v for j, v in acc.items() if v != 0}
            if acc:
                rows[i] = acc
        return RMatrix(self.row_lo, self.row_hi, self.col_lo, self.col_hi, rows)

    def scale(self, s) -> "RMatrix":
        s = frac(s)
        if s == 0:
            return RMatrix(self.row_lo, self.row_hi, self.col_lo, self.col_hi, {})
        return RMatrix(self.row_lo, self.row_hi, self.col_lo, self.col_hi,
                       {i: {j: s * v for j, v in row.items()} for i, row in self.rows.items()})

    def sub(self, other: "RMatrix") -> "RMatrix":
        return self.add(other.scale(-1))

    @property
    def window(self) -> tuple:
        return self.row_lo, self.row_hi, self.col_lo, self.col_hi

    def equals(self, other: "RMatrix") -> bool:
        return self.window == other.window and self.rows == other.rows


def op_norm_inf(m: RMatrix) -> Fraction:
    """l_inf -> l_inf operator norm: the max l1-norm over rows."""
    best = ZERO
    for row in m.rows.values():
        s = sum((abs(v) for v in row.values()), ZERO)
        if s > best:
            best = s
    return best


def invert(m: RMatrix) -> RMatrix:
    """Exact inverse: the right half of rref([m | I]); raises SingularMatrixError."""
    if not m.is_square():
        raise ParameterError("invert requires a square window matrix")
    n = m.n_rows
    if n == 0:
        return RMatrix(m.row_lo, m.row_hi, m.col_lo, m.col_hi, {})
    eye = RMatrix.identity(0, n).to_dense()
    tab, pivots = _reduce([a + e for a, e in zip(m.to_dense(), eye)])
    # pivots rise strictly, so the first c with pivots[c] != c is the
    # first column of m without a pivot
    missing = next((c for c, p in enumerate(pivots) if c != p), None)
    if missing is not None:
        raise SingularMatrixError("matrix is singular at column %d" % missing)
    return RMatrix(m.row_lo, m.row_hi, m.col_lo, m.col_hi, {
        m.row_lo + i: {m.col_lo + j: Fraction(x, den) for j, x in enumerate(row[n:]) if x}
        for i, (row, den) in enumerate(tab)})


def block_compose(blocks: Sequence[RMatrix], layout: BlockLayout) -> RMatrix:
    """Assemble a block-diagonal matrix from square blocks on layout intervals."""
    intervals = layout.blocks()
    if len(blocks) != len(intervals):
        raise ParameterError("block count does not match layout")
    rows = {}
    for b, (lo, hi) in zip(blocks, intervals):
        if b.window != (lo, hi, lo, hi):
            raise ParameterError("block window does not match layout interval [%d, %d)" % (lo, hi))
        for i, row in b.rows.items():
            rows[i] = dict(row)
    lo, hi = layout.cuts[0], layout.cuts[-1]
    return RMatrix(lo, hi, lo, hi, rows)


# -- dense helpers on lists of Fraction lists -------------------------

def coordinate_rows(vectors, lo: int, hi: int) -> list:
    """Row i -> tuple of the vectors' values at i, for i in [lo, hi).

    For a basis these are the coefficient-space rows of the unit ball
    {x in span : |x|_inf <= 1} on the window."""
    return [tuple(v.value(i) for v in vectors) for i in range(lo, hi)]


def int_row(values):
    """The exact rationals `values` as (ints, den) over their least common
    denominator, so entry j is ints[j] / den."""
    den = lcm(*[v.denominator for v in values])
    if den == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (den // v.denominator) for v in values], den


def eliminate(tab, k, r, c):
    """Clear entry c of row k with row r, whose entry c is 1: row_k * s -
    f * row_r over den_k * s, for f the entry and s row r's denominator,
    both over their gcd.  A row is reduced only when its den is not 1."""
    row, den = tab[k]
    f = row[c]
    if not f:
        return
    prow, p = tab[r]
    g = gcd(f, p)
    f //= g
    s = p // g
    if s == 1:
        row = [x - f * y if y else x for x, y in zip(row, prow)]
    else:
        row = [x * s - f * y for x, y in zip(row, prow)]
        den *= s
    if den != 1:
        g = gcd(den, *row)
        if g != 1:
            row = [x // g for x in row]
            den //= g
    tab[k] = (row, den)


def pivot(tab, r, c):
    """One Gauss-Jordan step in place on rows (ints, den): row r becomes
    its ints over its entry c, whose entry c is then 1, and column c is
    cleared from every other row."""
    row = tab[r][0]
    p = row[c]
    if p < 0:
        row = [-x for x in row]
        p = -p
    if p != 1:
        g = gcd(*row)  # p is an entry, so g divides it
        if g != 1:
            row = [x // g for x in row]
            p //= g
    tab[r] = (row, p)
    for k in range(len(tab)):
        if k != r:
            eliminate(tab, k, r, c)


def _reduce(rows) -> tuple:
    """(integer rows of the rref of rows, pivot columns)."""
    tab = [int_row(row) for row in rows]
    pivots = []
    r = 0
    for c in range(len(tab[0][0]) if tab else 0):
        piv = next((k for k in range(r, len(tab)) if tab[k][0][c]), None)
        if piv is None:
            continue
        tab[r], tab[piv] = tab[piv], tab[r]
        pivot(tab, r, c)
        pivots.append(c)
        r += 1
        if r == len(tab):
            break
    return tab, pivots


def rref(rows: list) -> tuple:
    """Reduced row echelon form. Returns (rref_rows, pivot_columns)."""
    tab, pivots = _reduce(rows)
    return [[Fraction(x, den) if x else ZERO for x in row] for row, den in tab], pivots


def rank(rows) -> int:
    return len(_reduce(rows)[1])


def kernel_basis(rows: list, lo: int, hi: int) -> list:
    """Basis of the nullspace of dense rows over the columns [lo, hi).

    One vector per free column f of the rref: 1 at f, minus column f of
    the reduced rows at the pivots, zero elsewhere, so each has at most
    rank + 1 nonzero entries."""
    tab, pivots = _reduce(rows)
    pivot_cols = set(pivots)
    basis = []
    for f in range(hi - lo):
        if f not in pivot_cols:
            entries = {lo + p: Fraction(-row[f], den) for (row, den), p in zip(tab, pivots)}
            entries[lo + f] = ONE
            basis.append(WindowVector.sparse(lo, hi, entries))
    return basis


def nullspace(rows: list, ncols: int) -> list:
    """Basis (list of Fraction lists) of the nullspace of the row system."""
    return [list(v.coords) for v in kernel_basis(rows, 0, ncols)]


def solve_exact(rows: list, rhs: list):
    """One exact solution of the row system (rows)x = rhs, or None."""
    if not rows:
        return [] if all(v == 0 for v in rhs) else None
    ncols = len(rows[0])
    tab, pivots = _reduce([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:  # a row reads 0 = nonzero
        return None
    sol = [ZERO] * ncols
    for (row, den), p in zip(tab, pivots):
        sol[p] = Fraction(row[ncols], den)
    return sol
