"""Exact rational vectors and matrices on integer index windows.

Everything is a pure function over immutable values; scalars are
`fractions.Fraction` at every interface and no operation ever rounds.
Inside, numbers are integer rows (ints, den): an RMatrix stores each row
so, and elimination runs on them through `pivot`, the one Gauss-Jordan
step behind rank, inverses, kernels, solves and the simplex.  Checks
read the stored rows too: `is_product` decides M N = P, and
`block_facts` every fact of a block, with no product matrix built; so do
`extension_block`, which builds (B_to - R B_from) Psi + R row by row,
each distinct row times Psi once, and `product_norm`, |B Psi|.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import ParameterError, SingularMatrixError

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints / strings like ``"3/4"`` to Fraction, exactly; a float,
    a bool or anything that is not a rational raises ParameterError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise ParameterError("%r: floats are not allowed, nor bools; pass 'p/q' strings" % (x,))
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise ParameterError("not a rational number: %r" % (x,)) from e


# "p" or "p/q" in ASCII digits.  int() refuses a string of more digits
# than a limit that is 4300 by default and can be set no lower than 640,
# so a longer string goes to frac, which decides it under that limit.
_RATIO = re.compile(r"(-?[0-9]{1,640})(?:/([0-9]{1,640}))?")


def ratio(x) -> tuple:
    """x as integers (p, q), q > 0, with x = p / q, not necessarily
    reduced.  An int, a Fraction or a string "p" or "p/q" of digits is
    read directly; every other value goes through `frac`, so each value
    is accepted or refused exactly as `frac` does."""
    if type(x) is str:
        m = _RATIO.fullmatch(x)
        if m:
            p, q = m.groups()
            q = int(q) if q else 1
            if q:
                return int(p), q
    elif type(x) is int:
        return x, 1
    elif isinstance(x, Fraction):
        return x.numerator, x.denominator
    x = frac(x)
    return x.numerator, x.denominator


def check_int(x, what: str):
    """x itself when it is an int (not a bool); ParameterError otherwise."""
    if type(x) is not int:
        raise ParameterError("%s %r is not an integer" % (what, x))
    return x


def _check_window(lo: int, hi: int):
    check_int(lo, "window bound")
    check_int(hi, "window bound")
    if hi < lo:
        raise ParameterError("window [%d, %d) is inverted" % (lo, hi))


_setattr = object.__setattr__


def _vector(lo: int, hi: int, nz: dict) -> "WindowVector":
    """A WindowVector on a checked window from trusted nonzeros: nonzero
    Fractions at indices inside [lo, hi), in increasing index order."""
    v = object.__new__(WindowVector)
    v._init(lo, hi, nz)
    return v


class WindowVector:
    """Rational coordinates on a half-open window [lo, hi).

    Only the nonzero coordinates are stored, as a map index -> Fraction in
    increasing index order; the dense ``coords`` tuple is built from them
    on each call.  Instances are never mutated, so the sup norm and the
    support are computed at most once.  Two vectors are equal when they
    have the same window and the same coordinates.
    """

    __slots__ = ("lo", "hi", "_nz", "_sup", "_support")

    def __init__(self, lo: int, hi: int, coords):
        _check_window(lo, hi)
        coords = tuple(frac(c) for c in coords)
        if len(coords) != hi - lo:
            raise ParameterError("coordinate count does not match window length")
        self._init(lo, hi, {lo + k: c for k, c in enumerate(coords) if c})

    def _init(self, lo, hi, nz):
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)
        _setattr(self, "_nz", nz)
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
    def sparse(lo: int, hi: int, entries: dict) -> "WindowVector":
        """The vector on [lo, hi) with the given {index: value} entries
        and zeros elsewhere."""
        _check_window(lo, hi)
        nz = {}
        for i in sorted(entries):
            if not lo <= check_int(i, "index") < hi:
                raise ParameterError("index %d outside window [%d, %d)" % (i, lo, hi))
            c = frac(entries[i])
            if c:
                nz[i] = c
        return _vector(lo, hi, nz)

    @property
    def coords(self) -> tuple:
        dense = [ZERO] * (self.hi - self.lo)
        for i, c in self._nz.items():
            dense[i - self.lo] = c
        return tuple(dense)

    def items(self):
        """(index, value) pairs of the nonzero coordinates, in index order."""
        return self._nz.items()

    def value(self, i: int) -> Fraction:
        return self._nz.get(i, ZERO)

    def window(self, lo: int, hi: int) -> tuple:
        """The values at lo, ..., hi - 1; zero outside the vector's window."""
        return tuple(self._nz.get(i, ZERO) for i in range(lo, hi))

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

    def is_zero(self) -> bool:
        return not self._nz


@dataclass(frozen=True)
class BlockLayout:
    """Strictly increasing cut points n_0 < ... < n_K."""

    cuts: tuple

    def __post_init__(self):
        cuts = tuple(check_int(c, "cut point") for c in self.cuts)
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ParameterError("cut points must be strictly increasing")
        object.__setattr__(self, "cuts", cuts)

    def blocks(self):
        return list(zip(self.cuts, self.cuts[1:]))


def _int_entries(nz: dict) -> tuple:
    """The nonzero Fractions {col: value} as one canonical row
    ({col: int}, den), through `int_row`."""
    ints, den = int_row(list(nz.values()))
    return dict(zip(nz, ints)), den


def _canonical(acc: dict, den: int):
    """The row acc over den > 0 with its zeros dropped and reduced by the
    gcd of den and its entries, or None when every entry is zero."""
    acc = {j: x for j, x in acc.items() if x}
    if not acc:
        return None
    if den != 1:
        g = gcd(den, *acc.values())
        if g != 1:
            acc = {j: x // g for j, x in acc.items()}
            den //= g
    return acc, den


def _matrix(row_lo: int, row_hi: int, col_lo: int, col_hi: int,
            rows: dict) -> "RMatrix":
    """An RMatrix from trusted canonical rows inside its windows."""
    m = object.__new__(RMatrix)
    m._init(row_lo, row_hi, col_lo, col_hi, rows)
    return m


_NO_ROW = ({}, 1)


class RMatrix:
    """Sparse rational matrix on row window x column window.

    Each nonzero row is stored as ({col: int}, den), entry j being
    ints[j] / den, in one canonical form: den > 0, gcd(den, entries) = 1,
    no zero entry and no empty row.  Two matrices are therefore equal
    exactly when their windows and row dicts are.  Every entry a caller
    reads (`get`, `items`) is a Fraction.  The constructor checks the
    windows and reads every entry through `ratio`, straight into an
    integer row over the lcm of its denominators; the operations build
    their results from canonical rows without either.
    Instances are never mutated.
    """

    __slots__ = ("row_lo", "row_hi", "col_lo", "col_hi", "_rows")

    def __init__(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int,
                 rows: dict | None = None):
        self._read(row_lo, row_hi, col_lo, col_hi, rows or {}, True)

    @staticmethod
    def from_entries(row_lo: int, row_hi: int, col_lo: int, col_hi: int,
                     entries) -> "RMatrix":
        """The matrix of the (i, j, value) triples, each (i, j) listed at
        most once.  Each index is checked once, as it is read and before
        the repeat test, since True or 1.0 would find the row or entry of
        1; the windows, the index ranges and the values are then checked
        as the constructor checks them."""
        rows = {}
        for i, j, v in entries:
            row = rows.setdefault(check_int(i, "row index"), {})
            if check_int(j, "col index") in row:
                raise ParameterError("matrix entry (%r, %r) is listed twice" % (i, j))
            row[j] = v
        m = object.__new__(RMatrix)
        m._read(row_lo, row_hi, col_lo, col_hi, rows, False)
        return m

    def _read(self, row_lo, row_hi, col_lo, col_hi, rows, check_indices):
        _check_window(row_lo, row_hi)
        _check_window(col_lo, col_hi)
        clean = {}
        for i, row in rows.items():
            if check_indices:
                check_int(i, "row index")
            if not (row_lo <= i < row_hi):
                raise ParameterError("row index %d outside window" % i)
            nums, dens = {}, []
            for j, v in row.items():
                if check_indices:
                    check_int(j, "col index")
                if not (col_lo <= j < col_hi):
                    raise ParameterError("col index %d outside window" % j)
                nums[j], q = ratio(v)
                dens.append(q)
            den = lcm(*dens)
            if den != 1:
                nums = {j: p * (den // q) for (j, p), q in zip(nums.items(), dens)}
            r = _canonical(nums, den)
            if r:
                clean[i] = r
        self._init(row_lo, row_hi, col_lo, col_hi, clean)

    def _init(self, row_lo, row_hi, col_lo, col_hi, rows):
        _setattr(self, "row_lo", row_lo)
        _setattr(self, "row_hi", row_hi)
        _setattr(self, "col_lo", col_lo)
        _setattr(self, "col_hi", col_hi)
        _setattr(self, "_rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("RMatrix is immutable")

    def __reduce__(self):
        rows = {}
        for i, j, v in self.items():
            rows.setdefault(i, {})[j] = v
        return RMatrix, self.window + (rows,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.equals(other)

    __hash__ = None

    def __repr__(self):
        # the constructor call that unpickling makes
        return "RMatrix(row_lo=%r, row_hi=%r, col_lo=%r, col_hi=%r, rows=%r)" % (
            self.__reduce__()[1])

    # -- constructors -------------------------------------------------
    @staticmethod
    def identity(lo: int, hi: int) -> "RMatrix":
        _check_window(lo, hi)
        return _matrix(lo, hi, lo, hi, {i: ({i: 1}, 1) for i in range(lo, hi)})

    @staticmethod
    def pairing(lo: int, hi: int, rows: Sequence[int], cols: Sequence[int]) -> "RMatrix":
        """The 0/1 matrix on [lo, hi)^2 with a 1 at (rows[k], cols[k]) for
        each k, no row twice: the indices are checked, no value is read."""
        _check_window(lo, hi)
        out = {i: ({j: 1}, 1) for i, j in zip(rows, cols) if lo <= i < hi and lo <= j < hi}
        if not len(out) == len(rows) == len(cols):
            raise ParameterError("a pair repeats a row or lies outside [%d, %d)" % (lo, hi))
        return _matrix(lo, hi, lo, hi, out)

    @staticmethod
    def from_columns(cols: Sequence[WindowVector]) -> "RMatrix":
        if not cols:
            raise ParameterError("no columns")
        lo, hi = cols[0].lo, cols[0].hi
        rows = {}
        for j, c in enumerate(cols):
            if (c.lo, c.hi) != (lo, hi):
                raise ParameterError("column windows differ")
            for i, v in c.items():
                rows.setdefault(i, {})[j] = v
        return _matrix(lo, hi, 0, len(cols),
                       {i: _int_entries(r) for i, r in rows.items()})

    @staticmethod
    def from_rows_vectors(rws: Sequence[WindowVector]) -> "RMatrix":
        if not rws:
            raise ParameterError("no rows")
        lo, hi = rws[0].lo, rws[0].hi
        rows = {}
        for i, r in enumerate(rws):
            if (r.lo, r.hi) != (lo, hi):
                raise ParameterError("row windows differ")
            if not r.is_zero():
                rows[i] = _int_entries(r._nz)
        return _matrix(0, len(rws), lo, hi, rows)

    # -- queries ------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.row_hi - self.row_lo

    @property
    def window(self) -> tuple:
        return self.row_lo, self.row_hi, self.col_lo, self.col_hi

    def items(self):
        """(row, col, value) of the nonzero entries in row-major order;
        each value is a Fraction built on the call, none is kept."""
        for i in sorted(self._rows):
            row, den = self._rows[i]
            for j in sorted(row):
                yield i, j, Fraction(row[j], den)

    def entry_texts(self) -> list:
        """[row, col, text] of the nonzero entries in row-major order, each
        text the str of its Fraction ("p/q", or "p" over 1), written from
        the integer row over its gcd with the denominator."""
        out = []
        for i in sorted(self._rows):
            row, den = self._rows[i]
            for j, x in sorted(row.items()):
                g = gcd(x, den)
                out.append([i, j, str(x // g) if g == den else "%d/%d" % (x // g, den // g)])
        return out

    def get(self, i: int, j: int) -> Fraction:
        row, den = self._rows.get(i, _NO_ROW)
        x = row.get(j)
        return Fraction(x, den) if x else ZERO

    def is_square(self) -> bool:
        return (self.row_lo, self.row_hi) == (self.col_lo, self.col_hi)

    def columns(self, i: int) -> list:
        """The columns of row i's nonzero entries, in increasing order."""
        return sorted(self._rows.get(i, _NO_ROW)[0])

    def differences(self, other: "RMatrix", lo: int, hi: int) -> list:
        """The (i, j) in [lo, hi)^2 where self and other differ, in order."""
        out = []
        for i in range(lo, hi):
            a, b = self._rows.get(i, _NO_ROW), other._rows.get(i, _NO_ROW)
            if a == b:
                continue
            (ra, da), (rb, db) = a, b
            out += [(i, j) for j in sorted(ra.keys() | rb.keys())
                    if lo <= j < hi and ra.get(j, 0) * db != rb.get(j, 0) * da]
        return out

    def equals(self, other: "RMatrix") -> bool:
        return self.window == other.window and self._rows == other._rows

    # -- algebra ------------------------------------------------------
    def matmul(self, other: "RMatrix") -> "RMatrix":
        if (self.col_lo, self.col_hi) != (other.row_lo, other.row_hi):
            raise ParameterError("inner windows do not match")
        orows = other._rows
        rows = {}
        for i, (row, den) in self._rows.items():
            r = _canonical(*_row_times(row, den, orows))
            if r:
                rows[i] = r
        return _matrix(self.row_lo, self.row_hi, other.col_lo, other.col_hi, rows)

    def block(self, lo: int, hi: int) -> "RMatrix":
        """The square block on [lo, hi)^2; entries outside are dropped."""
        rows = {}
        for i in range(max(lo, self.row_lo), min(hi, self.row_hi)):
            r = self._rows.get(i)
            if r is None:
                continue
            if not all(lo <= j < hi for j in r[0]):
                r = _canonical({j: x for j, x in r[0].items() if lo <= j < hi}, r[1])
                if r is None:
                    continue
            rows[i] = r
        return _matrix(lo, hi, lo, hi, rows)

    def merged(self, other: "RMatrix") -> "RMatrix":
        """The rows of self and of other, other's in place of self's where
        both have one, on the smallest windows that hold both."""
        return _matrix(min(self.row_lo, other.row_lo), max(self.row_hi, other.row_hi),
                       min(self.col_lo, other.col_lo), max(self.col_hi, other.col_hi),
                       {**self._rows, **other._rows})


def _row_times(row: dict, den: int, orows: dict) -> tuple:
    """(acc, d) with (row / den) times the rows orows equal to acc / d:
    sum_j row[j] * (row j of orows) as integer entries over the lcm common
    of the denominators of the rows it sums, and d = den * common."""
    terms = [(a, orows[j]) for j, a in row.items() if j in orows]
    common = lcm(*[d for _, (_, d) in terms])
    acc = {}
    get = acc.get
    for a, (orow, d) in terms:
        if d != common:
            a *= common // d
        for k, b in orow.items():
            acc[k] = get(k, 0) + a * b
    return acc, den * common


def _is_unit_row(i: int, row: dict, den: int, orows: dict) -> bool:
    """Is (row / den) times the rows orows the unit row e_i?  A row of one
    entry a at j needs row j of orows to be its one entry at i, with
    a * that entry = den * its denominator; otherwise the sum is formed
    on the integer rows and compared with den * common at i, zero
    elsewhere.  No row is reduced and no Fraction is built."""
    if len(row) == 1:
        (j, a), = row.items()
        orow, d = orows.get(j, _NO_ROW)
        return len(orow) == 1 and a * orow.get(i, 0) == den * d
    acc, d = _row_times(row, den, orows)
    return acc.pop(i, 0) == d and not any(acc.values())


def is_product(m: RMatrix, n: RMatrix, p: RMatrix) -> bool:
    """m . n = p, as `m.matmul(n).equals(p)` decides it, row by row on
    the integer rows with no product built: each row of m times n, made
    canonical, is p's row, and p has no row where m has none."""
    if (m.col_lo, m.col_hi) != (n.row_lo, n.row_hi):
        raise ParameterError("inner windows do not match")
    if p.window != (m.row_lo, m.row_hi, n.col_lo, n.col_hi):
        return False
    rows, orows, prows = m._rows, n._rows, p._rows
    return prows.keys() <= rows.keys() and all(
        _canonical(*_row_times(row, den, orows)) == prows.get(i)
        for i, (row, den) in rows.items())


def is_right_inverse(m: RMatrix, n: RMatrix) -> bool:
    """m . n = I on m's row window, as `is_product` decides it, each row
    tested by `_is_unit_row`, with no identity matrix built."""
    if (m.col_lo, m.col_hi) != (n.row_lo, n.row_hi):
        raise ParameterError("inner windows do not match")
    rows, orows = m._rows, n._rows
    return (n.col_lo, n.col_hi) == (m.row_lo, m.row_hi) and all(
        i in rows and _is_unit_row(i, *rows[i], orows) for i in range(m.row_lo, m.row_hi))


def extension_block(b_to: RMatrix, r: RMatrix, b_from: RMatrix,
                    psi: RMatrix) -> RMatrix:
    """(b_to - r . b_from) . psi + r on r's window, built row by row on
    the integer rows: within the call, row i of b_to - r b_from is formed
    once per distinct (row i of b_to, r's row i, the rows of b_from it
    names) and multiplied by psi once per distinct value; r's row i is
    then added, with no reduction where it fills new columns over 1."""
    if not (r.window[:2] == b_to.window[:2] and r.window[2:] == b_from.window[:2]
            == psi.window[2:] and b_to.window[2:] == b_from.window[2:] == psi.window[:2]):
        raise ParameterError("windows do not match")
    to_rows, from_rows, r_rows, psi_rows = b_to._rows, b_from._rows, r._rows, psi._rows
    ids = {}  # one id per distinct row of b_to and b_from
    to_ids, from_ids = ({i: ids.setdefault((frozenset(row.items()), den), len(ids))
                         for i, (row, den) in rows.items()} for rows in (to_rows, from_rows))
    diffs, products, rows = {}, {}, {}
    for i in range(r.row_lo, r.row_hi):
        ri, rden = r_rows.get(i, _NO_ROW)
        key = to_ids.get(i), rden, *[(a, from_ids.get(j)) for j, a in ri.items()]
        p = diffs.get(key)
        if p is None:
            # b_to's row less r's row times b_from, a sum of two rows
            c = _canonical(*_row_times({0: 1, 1: -1}, 1, {
                0: to_rows.get(i, _NO_ROW), 1: _row_times(ri, rden, from_rows)})) or _NO_ROW
            c_key = frozenset(c[0].items()), c[1]
            if c_key not in products:
                products[c_key] = _canonical(*_row_times(*c, psi_rows)) or _NO_ROW
            p = diffs[key] = products[c_key]
        prow, pden = p
        if rden == 1 and ri.keys().isdisjoint(prow):
            # p is canonical, so gcd(pden, its entries) = 1 already
            row = {**prow, **(ri if pden == 1 else {j: a * pden for j, a in ri.items()})}, pden
        else:
            row = _canonical(*_row_times({0: 1, 1: 1}, 1, {0: p, 1: (ri, rden)}))
        if row and row[0]:
            rows[i] = row
    return _matrix(r.row_lo, r.row_hi, r.col_lo, r.col_hi, rows)


def product_norm(b: RMatrix, psi: RMatrix) -> Fraction:
    """op_norm_inf(b . psi) with no product built: the largest l1 norm of
    a row of b times psi, each distinct row of b taken once."""
    if (b.col_lo, b.col_hi) != (psi.row_lo, psi.row_hi):
        raise ParameterError("inner windows do not match")
    distinct = {(frozenset(row.items()), den): (row, den) for row, den in b._rows.values()}
    return _max_l1([_row_times(row, den, psi._rows) for row, den in distinct.values()])


def _max_l1(rows) -> Fraction:
    """The largest l1 norm of the integer rows (row, den), 0 for none."""
    best, best_den = 0, 1
    for row, den in rows:
        s = sum(map(abs, row.values()))
        if s * best_den > best * den:
            best, best_den = s, den
    return Fraction(best, best_den)


def op_norm_inf(m: RMatrix) -> Fraction:
    """l_inf -> l_inf operator norm: the max l1-norm over rows."""
    return _max_l1(m._rows.values())


def block_facts(m: RMatrix, lo: int, hi: int, inv: RMatrix | None = None,
                windows=()) -> tuple:
    """The facts of the square block [lo, hi)^2 of m, decided in one pass
    over the stored integer rows [lo, hi) of inv and one over those of m.
    m_b and inv_b are the blocks as `block` would copy them, entries
    outside [lo, hi)^2 dropped.  Returns (outside, inverse, norm,
    inv_norm, misses):

    - outside: the (i, j) of m's entries in rows [lo, hi) outside the
      columns [lo, hi), in row-major order;
    - inverse: whether inv has no such entry and m_b inv_b = I, each row
      decided as `is_right_inverse` decides it; None without inv;
    - norm, inv_norm: the operator norms of m_b and inv_b, inv_norm None
      without inv;
    - misses: for each ((f, f_den), (g, g_den)) of windows, integer rows
      over [lo, hi), None when m_b f = g, else (i, (m_b f)_i, g_i) as
      Fractions at the first row i where they differ.

    No block, product or identity matrix is built, and no Fraction but
    the two norms and the values of a miss."""
    inverse = inv_norm = None
    if inv is not None:
        orows, inv_rows, inverse = inv._rows, [], True
        for i in range(lo, hi):
            r = orows.get(i)
            if r is None:
                continue
            row, den = r
            if lo > min(row) or max(row) >= hi:
                inverse = False
                row = {j: x for j, x in row.items() if lo <= j < hi}
            inv_rows.append((row, den))
        inv_norm = _max_l1(inv_rows)
    rows, m_rows, outside = m._rows, [], []
    misses = [None] * len(windows)
    for i in range(lo, hi):
        row, den = rows.get(i, _NO_ROW)
        if row:
            if lo > min(row) or max(row) >= hi:
                outside += [(i, j) for j in sorted(row) if not lo <= j < hi]
                row = {j: x for j, x in row.items() if lo <= j < hi}
            m_rows.append((row, den))
        if inverse and not (row and _is_unit_row(i, row, den, orows)):
            inverse = False
        for k, ((f, f_den), (g, g_den)) in enumerate(windows):
            if misses[k] is None:
                s = sum([a * f[j - lo] for j, a in row.items()])
                if s * g_den != g[i - lo] * den * f_den:
                    misses[k] = (i, Fraction(s, den * f_den),
                                 Fraction(g[i - lo], g_den))
    return outside, inverse, _max_l1(m_rows), inv_norm, misses


def invert(m: RMatrix) -> RMatrix:
    """Exact inverse: the right half of rref([m | I]); raises SingularMatrixError."""
    if not m.is_square():
        raise ParameterError("invert requires a square window matrix")
    n = m.n_rows
    if n == 0:
        return _matrix(m.row_lo, m.row_hi, m.col_lo, m.col_hi, {})
    # row i of [m | I] over m's row denominator, as int_row would give it
    tab = []
    for i in range(n):
        row, den = m._rows.get(m.row_lo + i, _NO_ROW)
        ints = [0] * (2 * n)
        for j, x in row.items():
            ints[j - m.col_lo] = x
        ints[n + i] = den
        tab.append((ints, den))
    pivots = _echelon(tab)
    # pivots rise strictly, so the first c with pivots[c] != c is the
    # first column of m without a pivot
    missing = next((c for c, p in enumerate(pivots) if c != p), None)
    if missing is not None:
        raise SingularMatrixError("matrix is singular at column %d" % missing)
    return _matrix(m.row_lo, m.row_hi, m.col_lo, m.col_hi, {
        m.row_lo + i: _canonical({m.col_lo + j: x for j, x in enumerate(row[n:])}, den)
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
        rows.update(b._rows)
    lo, hi = layout.cuts[0], layout.cuts[-1]
    return _matrix(lo, hi, lo, hi, rows)


# -- dense helpers on lists of Fraction lists -------------------------

def coordinate_rows(vectors, lo: int, hi: int) -> list:
    """Row i -> tuple of the vectors' values at i, for i in [lo, hi).

    For a basis these are the coefficient-space rows of the unit ball
    {x in span : |x|_inf <= 1} on the window."""
    return list(zip(*[v.window(lo, hi) for v in vectors]))


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


def _echelon(tab) -> list:
    """Bring the integer rows tab to rref in place; the pivot columns."""
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
    return pivots


def rank(rows) -> int:
    return len(_echelon([int_row(row) for row in rows]))


def _kernel(tab, cols, lo: int, hi: int) -> list:
    """Basis of the joint kernel of the integer rows tab over the window
    [lo, hi), where column t of tab is window column cols[t] (increasing)
    and every other window column is zero in every row.

    Only tab's columns are eliminated.  One vector per free column f, in
    index order: 1 at f and minus column f of the reduced rows at the
    pivots, so each has at most rank + 1 nonzero entries; a column
    outside cols gives the unit vector at f.  A reduced row is zero left
    of its pivot, so every pivot it puts in a vector lies below f."""
    pivots = _echelon(tab)
    at = {c: t for t, c in enumerate(cols)}
    pivot_cols = set(pivots)
    pivot_at = [cols[p] for p in pivots]
    basis = []
    for f in range(lo, hi):
        t = at.get(f)
        if t is None:
            basis.append(_vector(lo, hi, {f: ONE}))
        elif t not in pivot_cols:
            entries = {c: Fraction(-row[t], den)
                       for (row, den), c in zip(tab, pivot_at) if row[t]}
            entries[f] = ONE
            basis.append(_vector(lo, hi, entries))
    return basis


def kernel_basis(rows: list, lo: int, hi: int) -> list:
    """Basis of the nullspace of dense rows over the columns [lo, hi)."""
    return _kernel([int_row(row) for row in rows], range(lo, hi), lo, hi)


def row_kernel(m: RMatrix) -> list:
    """Basis of the joint kernel of m's rows on its column window, the
    vectors `kernel_basis` gives on m's dense rows, from the columns
    that hold an entry alone."""
    cols = sorted({j for row, _ in m._rows.values() for j in row})
    tab = [([row.get(j, 0) for j in cols], den) for row, den in m._rows.values()]
    return _kernel(tab, cols, m.col_lo, m.col_hi)


def nullspace(rows: list, ncols: int) -> list:
    """Basis (list of Fraction lists) of the nullspace of the row system."""
    return [list(v.coords) for v in kernel_basis(rows, 0, ncols)]
