"""Decidable semantics for bounded sequences modulo vanishing sequences.

The certified class is "finite rational prefix + eventually periodic
tail".  It is closed under linear combinations, which `_aligned` alone
lines up: the longest prefix and the lcm of the periods, each at most
MAX_TAIL = 2^16, the lcm of branch 16 depth 4 against progression 16.
Tails equal from some index on have equal minimal periods (Fine and
Wilf), so `agree_from` compares two by window, unaligned.  Limsup norms,
eventual-equality classes and the window searches below are all exact
finite computations.

Each norm is a polyhedral max over coefficient rows of a `Span`, proved
pi-injective once by `check_pi_injective` on the span's period rows
taken as classes up to sign, with the class of each period position;
`Span.sub` gives a subfamily's span, aligned on its own prefix and
period and not proved again.  A norm reads a window's period positions
as a set of classes and builds rows only for the prefix; a window past
the prefix that hits every class has restriction-inverse norm 1 with no
LP.  A tail holds its values once, as integers over one denominator:
`TailVector.int_window` slices them, and the norms' rows, the classes,
`agree_from`, `eq_star` and the block checks of `forcing` read them as
they are; `window` builds their Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import NotInjectiveError, NotInvertibleError, ParameterError, UnboundedError
from .linalg import (
    ONE,
    ZERO,
    WindowVector,
    coordinate_rows,
    frac,
    int_row,
    nullspace,
    rank,
)
from .simplex import polyhedral_max, sign_normalized

MAX_TAIL = 1 << 16


def _minimal_period(pattern):
    """The shortest prefix that repeats to the whole pattern: n minus the
    longest proper border when that divides n, else the pattern itself.
    One prefix-function pass finds the border."""
    n = len(pattern)
    border = [0] * n
    k = 0
    for i in range(1, n):
        while k and pattern[i] != pattern[k]:
            k = border[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        border[i] = k
    p = n - k
    return pattern[:p] if n % p == 0 else pattern


def _slice(prefix: tuple, period: tuple, lo: int, hi: int) -> tuple:
    """The entries at lo, ..., hi - 1 of prefix followed by period
    repeated forever: a prefix slice, then repeated periods."""
    if lo < 0 and hi > lo:
        raise ParameterError("negative index")
    m, p = len(prefix), len(period)
    n, r = max(0, hi - max(lo, m)), (max(lo, m) - m) % p
    return prefix[lo:hi] + (period * ((n + r) // p + 1))[r:r + n]


def _fractions(ints, den) -> dict:
    """a -> the Fraction a / den, built once for each distinct a of ints."""
    return {a: Fraction(a, den) for a in set(ints)}


@dataclass(frozen=True, init=False)
class TailVector:
    """prefix on [0, m), then the period pattern repeated forever.

    Canonical form: minimal period, shortest prefix (trailing prefix
    entries that already match the rotated pattern are absorbed), so
    structural equality coincides with pointwise equality.  It is held
    once, as integers over the least common denominator of its values,
    (prefix ints, period ints, den); a value read is built as a Fraction.
    """

    _ints: tuple

    def __init__(self, prefix, period):
        prefix = [frac(c) for c in prefix]
        period = [frac(c) for c in period]
        if not period:
            raise ParameterError("period pattern must be nonempty")
        period = _minimal_period(tuple(period))
        # absorb the k trailing prefix entries that match the pattern
        # rotated right by k; a rotation of a minimal period is minimal
        p, k = len(period), 0
        while k < len(prefix) and prefix[-1 - k] == period[(-1 - k) % p]:
            k += 1
        m, s = len(prefix) - k, k % p
        ints, den = int_row(prefix[:m] + list(period[p - s:] + period[:p - s]))
        object.__setattr__(self, "_ints", (tuple(ints[:m]), tuple(ints[m:]), den))

    @staticmethod
    def from_window(v: WindowVector) -> "TailVector":
        """Finitely supported vector: v on [0, hi), then zeros."""
        if v.lo < 0:
            raise ParameterError("window must start at a nonnegative index")
        return TailVector((ZERO,) * v.lo + v.coords, (ZERO,))

    @property
    def prefix(self) -> tuple:
        return self.window(0, self.prefix_len)

    @property
    def period(self) -> tuple:
        return self.window(self.prefix_len, self.prefix_len + self.period_len)

    @property
    def prefix_len(self) -> int:
        return len(self._ints[0])

    @property
    def period_len(self) -> int:
        return len(self._ints[1])

    def value(self, i: int) -> Fraction:
        return self.window(i, i + 1)[0]

    def tail_sup(self, k: int) -> Fraction:
        """sup of |values| on [k, infinity)."""
        prefix, period, den = self._ints
        return Fraction(max(map(abs, prefix[k:] + period)), den)

    def window(self, lo: int, hi: int) -> tuple:
        """Values at lo, ..., hi - 1: a prefix slice, then repeated periods."""
        ints, den = self.int_window(lo, hi)
        return tuple(map(_fractions(ints, den).__getitem__, ints))

    def int_window(self, lo: int, hi: int) -> tuple:
        """(ints, den): the values at lo, ..., hi - 1 as ints[k] / den,
        sliced from the integer form, so no Fraction is built."""
        prefix, period, den = self._ints
        return _slice(prefix, period, lo, hi), den

    def restrict(self, lo: int, hi: int) -> WindowVector:
        """The values on [lo, hi), built from the window's nonzeros."""
        ints, den = self.int_window(lo, hi)
        value = _fractions(ints, den)
        return WindowVector.sparse(lo, hi, {i: value[a] for i, a in enumerate(ints, lo) if a})

    def scale(self, s) -> "TailVector":
        s = frac(s)
        return TailVector(tuple(s * c for c in self.prefix),
                          tuple(s * c for c in self.period))

    def add(self, other: "TailVector") -> "TailVector":
        m, p = _aligned((self, other))
        total = tuple(x + y for x, y in zip(self.window(0, m + p),
                                            other.window(0, m + p)))
        return TailVector(total[:m], total[m:])

    def to_json_obj(self):
        return {"prefix": [str(c) for c in self.prefix],
                "period": [str(c) for c in self.period]}

    @staticmethod
    def from_json_obj(obj) -> "TailVector":
        return TailVector(tuple(obj["prefix"]), tuple(obj["period"]))


def _int_rows(tails, lo: int, hi: int) -> list:
    """Row i -> the tails' integers at i, for i in [lo, hi) (`Span.classes`
    says why a norm may read these rows)."""
    return list(zip(*[f.int_window(lo, hi)[0] for f in tails]))


def quotient_norm(f: TailVector) -> Fraction:
    """limsup |f| = the largest |value| over one tail period."""
    return f.tail_sup(f.prefix_len)


def _differences(f: TailVector, g: TailVector, lo: int, hi: int):
    """The indices of [lo, hi) where a / d_f != b / d_g, i.e. a d_g != b d_f."""
    (a, df), (b, dg) = f.int_window(lo, hi), g.int_window(lo, hi)
    return (i for i, x, y in zip(range(lo, hi), a, b) if x * dg != y * df)


def agree_from(f: TailVector, g: TailVector, n: int) -> bool:
    """f = g on [n, infinity)?  Equal tails have equal minimal periods, and
    past both prefixes one period of each decides the rest."""
    if f.period_len != g.period_len:
        return False
    end = max(n, f.prefix_len, g.prefix_len) + f.period_len
    return next(_differences(f, g, n, end), None) is None


def eq_star(f: TailVector, g: TailVector):
    """(equal modulo finitely many indices?, exact exception set)."""
    m = max(f.prefix_len, g.prefix_len)
    if not agree_from(f, g, m):
        return False, None
    return True, list(_differences(f, g, 0, m))


@dataclass(frozen=True)
class LiftWindow:
    n: int
    verified_value: Fraction  # the exact polyhedral max certifying n


def _aligned(fs):
    if not fs:
        raise ParameterError("empty span")
    m = max(f.prefix_len for f in fs)
    p = lcm(*[f.period_len for f in fs])
    if max(m, p) > MAX_TAIL:
        raise ParameterError(
            "aligning these tails needs a prefix of %d and a period of %d; "
            "the bound is %d" % (m, p, MAX_TAIL))
    return m, p


@dataclass(frozen=True)
class Span:
    """Tails proved pi-injective by check_pi_injective, or a subfamily of
    them (pi-injective as well); max |row . y| over the class rows is the
    quotient norm of sum c_k tails_k, y_k = c_k / den_k."""

    tails: tuple
    m: int
    p: int

    @cached_property
    def classes(self) -> tuple:
        """(class rows, class of each period position): the period rows
        distinct up to sign, each sign-normalized, and for position m + j
        the index of its row's class, None for a zero row.

        A row, like every row of a norm, is the tails' integers at its
        position.  Tail k is a_k / den_k with one den_k > 0, so the rows
        read the coefficients y_k = c_k / den_k, a positive diagonal
        rescaling of c.  It keeps which rows are equal up to sign, every
        rank, every polyhedral max and UnboundedError, and every pivot of
        Bland's rule: it scales each tableau column and its reduced cost
        by a positive number, which moves no sign and no ratio test."""
        rows = _int_rows(self.tails, self.m, self.m + self.p)
        index = {}
        cls = tuple(None if key is None else index.setdefault(key, len(index))
                    for key in map(sign_normalized, rows))
        return list(index), cls

    def sub(self, ks) -> "Span":
        tails = tuple(self.tails[k] for k in ks)
        return Span(tails, *_aligned(tails))


def check_pi_injective(fs) -> Span:
    """The span of fs, once its period rows have rank len(fs); else
    NotInjectiveError with a combination that vanishes at infinity: the
    first nullspace vector of the period rows, in the coefficients c."""
    span = Span(tuple(fs), *_aligned(fs))
    rows, _ = span.classes
    if rank(rows) < len(fs):
        witness = nullspace(coordinate_rows(fs, span.m, span.m + span.p), len(fs))[0]
        raise NotInjectiveError(
            "combination with coefficients %s lies in the vanishing ideal"
            % (tuple(witness),))
    return span


def lifting_index(fs, epsilon=ZERO) -> LiftWindow:
    """Smallest N with (1 - eps) |y restricted to [N, inf)| <= quotient_norm(y)
    for every y in the span; N = max prefix length always works because
    the tail sup past every prefix equals the quotient norm exactly.
    """
    epsilon = frac(epsilon)
    if not (0 <= epsilon < 1):
        raise ParameterError("epsilon must lie in [0, 1)")
    span = check_pi_injective(fs)
    budget = ONE / (1 - epsilon)
    for n in range(span.m):
        val = pi_section_norm(span, n)
        if val <= budget:
            return LiftWindow(n, val)
    return LiftWindow(span.m, ONE)


def restriction_index(fs, epsilon=ZERO) -> LiftWindow:
    """Smallest N with (1 - eps) |y| <= |y restricted to [0, N)| on the span;
    N = prefix length + one period always works.
    """
    epsilon = frac(epsilon)
    if not (0 <= epsilon < 1):
        raise ParameterError("epsilon must lie in [0, 1)")
    fs = [f if isinstance(f, TailVector) else TailVector.from_window(f) for f in fs]
    m, p = _aligned(fs)
    full = _int_rows(fs, 0, m + p)
    budget = ONE / (1 - epsilon)
    for n in range(1, m + p + 1):
        try:
            val, _, _ = polyhedral_max(full, full[:n])
        except UnboundedError:  # [0, n) does not pin the coefficients
            continue
        if val <= budget:
            return LiftWindow(n, val)
    raise NotInvertibleError("no restriction window found; basis is dependent")


def pi_section_norm(span: Span, n: int) -> Fraction:
    """Norm of the section sending the class of y to y restricted to [n, inf),
    on the span: max tail sup over the quotient-norm unit ball."""
    if n >= span.m:
        # past every prefix the objective rows coincide with the
        # constraint rows, so the sup over the unit ball is exactly 1
        return ONE
    rows, _ = span.classes
    val, _, _ = polyhedral_max(_int_rows(span.tails, n, span.m) + rows, rows)
    return val


def r_operator_inverse_norm(span: Span, n: int, n_prime: int) -> Fraction:
    """max quotient norm over {|y| <= 1 on [n, n')}; NotInvertible when the
    restriction window is too short to pin down coefficients.

    The quotient norm of sum c_k tails_k is max |r . y| over the span's
    class rows r, y_k = c_k / den_k.  Past the prefix, position i reads the row of class
    cls[(i - m) mod p], and neither a repeated row nor a row's negative
    changes the constraint set or its rank.  So the constraints are the
    window's prefix rows and the class rows its period positions hit, at
    most one period of positions.  When n >= m and every class is hit,
    the constraint set is the quotient-norm ball {y : max |r . y| <= 1}:
    each y in it has quotient norm at most 1, and any y != 0 over its
    quotient norm, positive as the class rows have full rank, lies in it
    with quotient norm 1.  The value is then exactly 1, and no LP runs.
    """
    rows, cls = span.classes
    lo = max(n, span.m)
    end = min(n_prime, lo + span.p)
    r, k = (lo - span.m) % span.p, max(0, end - lo)
    hit = set(cls[r:r + k]) | set(cls[:max(0, r + k - span.p)])
    hit.discard(None)
    if n >= span.m and len(hit) == len(rows):
        return ONE
    prefix = _int_rows(span.tails, n, min(end, span.m)) if n < span.m else []
    try:
        val, _, _ = polyhedral_max(rows, prefix + [rows[c] for c in sorted(hit)])
    except UnboundedError:
        raise NotInvertibleError(
            "restriction to [%d, %d) is not injective on the span"
            % (n, n_prime)) from None
    return val
