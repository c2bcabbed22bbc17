"""Geometry of subspaces of finite-dimensional l_infty.

Norm quantities of maps between subspaces are exact: the sup of a
polyhedral convex function over a polyhedral unit ball is attained at a
vertex, and we reach that vertex with one exact LP per (deduped)
objective row instead of enumerating all vertices.  Every pipeline
output is verified before it is returned; no bound is claimed unchecked.
A `Subspace` keeps the private pivots that prove its basis independent,
and its coefficient extractor reads them instead of eliminating; it also
carries its basis matrix and the column layout of its Hahn-Banach LP,
each built on first use.  When the disjoint windows of an almost-disjoint
family make that layout diagonal, the LP is answered in closed form.

`extend_isomorphism` builds w = (B_2 - R B_1) Psi_1 + R from the
projection functionals Psi_1 and a complement map R by one kernel,
`linalg.extension_block`, for w and w^-1 and every R: row by row, each
distinct row of B_2 - R B_1 multiplied by Psi_1 once.  When each Psi has
exactly h nonzero columns, as in every block of the benchmark workloads,
the complements are coordinate subspaces and R is the partial
permutation that `complement_iso` would give, found without it.
Soundness rests on neither: the returned w and w^-1 are checked exactly,
whichever R built them, and w = t on the basis as w B_1 = B_2, decided
row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .config import RunConfig
from .errors import (
    ComplementNotFoundError,
    NormBudgetError,
    ParameterError,
    SingularMatrixError,
    UnboundedError,
)
from .linalg import (
    ONE,
    ZERO,
    RMatrix,
    WindowVector,
    check_int,
    coordinate_rows,
    extension_block,
    frac,
    is_product,
    is_right_inverse,
    nullspace,
    op_norm_inf,
    product_norm,
    rank,
    row_kernel,
)
from .simplex import L1Layout, lp_min_l1, polyhedral_max


def _private_pivots(basis):
    """For each basis vector, a coordinate where it alone is nonzero, or
    None when no such system exists.  A full system certifies linear
    independence and yields a one-entry-per-row coefficient extractor
    without any elimination."""
    supports = [v.support() for v in basis]
    count = {}
    for s in supports:
        for i in s:
            count[i] = count.get(i, 0) + 1
    out = []
    for s in supports:
        priv = sorted(i for i in s if count[i] == 1)
        if not priv:
            return None
        out.append(priv[0])
    return tuple(out)


def _disjoint_supports(vectors):
    seen = set()
    for v in vectors:
        s = v.support()
        if s & seen:
            return False
        seen |= s
    return True


def _combination(coeffs, vectors, lo: int, hi: int) -> WindowVector:
    """sum c_k v_k on [lo, hi), given one coefficient per vector."""
    if len(coeffs) != len(vectors):
        raise ParameterError("one coefficient per vector required")
    out = WindowVector.zero(lo, hi)
    for c, v in zip(coeffs, vectors):
        out = out.add(v.scale(c))
    return out


@dataclass(frozen=True)
class Subspace:
    """Span of linearly independent vectors inside l_infty on [lo, hi)."""

    lo: int
    hi: int
    basis: tuple
    _pivots: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        check_int(self.lo, "window bound")
        check_int(self.hi, "window bound")
        basis = tuple(self.basis)
        for v in basis:
            if v.lo < self.lo or v.hi > self.hi:
                raise ParameterError("basis vector exceeds the ambient window")
        basis = tuple(v.restrict(self.lo, self.hi) for v in basis)
        pivots = _private_pivots(basis)
        if pivots is None and rank([v.coords for v in basis]) < len(basis):
            raise ParameterError("basis vectors are linearly dependent")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_pivots", pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def l1_layout(self) -> L1Layout:
        """The column layout of the Hahn-Banach LP on the basis, built
        once: every extension of a functional on this subspace solves
        against it (needs dim > 0)."""
        return L1Layout(self.basis)

    @cached_property
    def basis_matrix(self) -> RMatrix:
        """Columns are the basis vectors: coefficient space -> ambient,
        built once: the projection's certificate and the extension
        formula read the same matrix (needs dim > 0)."""
        return RMatrix.from_columns(list(self.basis))

    def combine(self, coeffs) -> WindowVector:
        return _combination(coeffs, self.basis, self.lo, self.hi)

    def coefficient_extractor(self) -> RMatrix:
        """A dim x n matrix E with E v = coefficients for every v in the
        span, read from the private pivots; ParameterError without them."""
        if self._pivots is None:
            raise ParameterError("the basis has no private coordinates")
        rows = {k: {i: ONE / self.basis[k].value(i)}
                for k, i in enumerate(self._pivots)}
        return RMatrix(0, self.dim, self.lo, self.hi, rows)


@dataclass(frozen=True)
class LinMap:
    """Linear map given by the images of the domain's basis vectors.

    Instances are never mutated, so `norm` and `lower` run `op_norm` and
    `lower_bound` (uncapped) at most once per map.
    """

    domain: Subspace
    images: tuple
    _norm: Fraction | None = field(default=None, init=False, repr=False,
                                   compare=False)
    _lower: Fraction | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        images = tuple(self.images)
        if len(images) != self.domain.dim:
            raise ParameterError("one image per domain basis vector required")
        if images:
            lohi = {(w.lo, w.hi) for w in images}
            if len(lohi) > 1:
                raise ParameterError("image windows differ")
        object.__setattr__(self, "images", images)

    def scale(self, s) -> "LinMap":
        if frac(s) == 1:
            return self
        return LinMap(self.domain, tuple(w.scale(s) for w in self.images))

    def norm(self) -> Fraction:
        """|T|, the value of op_norm."""
        if self._norm is None:
            object.__setattr__(self, "_norm", op_norm(self)[0])
        return self._norm

    def lower(self) -> Fraction:
        """The largest r with r|x| <= |Tx|, the value of lower_bound."""
        if self._lower is None:
            object.__setattr__(self, "_lower", lower_bound(self)[0])
        return self._lower


def _ratio_extreme(t: LinMap, want_max: bool):
    """When both the basis and the images have pairwise disjoint supports
    the sup norm of any combination splits per basis vector, so the norm
    (resp. lower bound) is exactly the max (min) image/domain sup ratio."""
    best = witness = None
    for v, w in zip(t.domain.basis, t.images):
        r = w.sup_norm() / v.sup_norm()
        if best is None or (r > best if want_max else r < best):
            best, witness = r, v
    return best, witness.scale(ONE / witness.sup_norm())


def op_norm(t: LinMap):
    """(norm, witness vector in the domain attaining it)."""
    if t.domain.dim == 0:
        return ZERO, WindowVector.zero(t.domain.lo, t.domain.hi)
    if _disjoint_supports(t.domain.basis) and _disjoint_supports(t.images):
        return _ratio_extreme(t, want_max=True)
    y, w = t.domain, t.images[0]
    val, coeffs, _ = polyhedral_max(coordinate_rows(t.images, w.lo, w.hi),
                                    coordinate_rows(y.basis, y.lo, y.hi))
    return val, t.domain.combine(coeffs)


def lower_bound(t: LinMap):
    """(largest r with r|x| <= |Tx| on the domain, witness x attaining it).

    Equals 1 / max{|x|_inf : |Tx|_inf <= 1}; that max is a polyhedral
    sup over the image-coefficient unit ball, one exact LP per row.
    Returns 0 when T has a kernel.
    """
    d = t.domain.dim
    if d == 0:
        return ZERO, WindowVector.zero(t.domain.lo, t.domain.hi)
    if _disjoint_supports(t.domain.basis) and _disjoint_supports(t.images):
        return _ratio_extreme(t, want_max=False)
    y, w = t.domain, t.images[0]
    image_rows = coordinate_rows(t.images, w.lo, w.hi)
    try:
        val, coeffs, _ = polyhedral_max(coordinate_rows(y.basis, y.lo, y.hi), image_rows)
    except UnboundedError:  # T has a kernel
        return ZERO, t.domain.combine(nullspace(image_rows, d)[0])
    return ONE / val, t.domain.combine(coeffs)


def hahn_banach_extend(y: Subspace, phi_values):
    """Norm-preserving extension of the functional phi given on y's basis.

    Returns (u, value): the l1 representer u on the ambient window with
    <u, v_k> = phi(v_k) exactly and |u|_1 equal to the dual norm of phi
    on y (LP duality for the l1-minimal interpolant).  The LP's column
    layout is y's, built once per subspace, so the h extensions of a
    projection group y's columns once and each solves only for its phi.
    """
    phi_values = [frac(p) for p in phi_values]
    if len(phi_values) != y.dim:
        raise ParameterError("one value per basis vector required")
    if y.dim == 0:
        return WindowVector.zero(y.lo, y.hi), ZERO
    return lp_min_l1(y.l1_layout, phi_values)


def _projection_norm(y: Subspace):
    """(|P|, Psi, S) for the projection P = B . Psi of l_infty^n onto y, B
    the basis matrix, and S the set of columns where some row of Psi is
    nonzero.  The one certificate is Psi . B = I_h: B has independent
    columns, so it holds exactly when P fixes every basis vector, and then
    P^2 = B (Psi B) Psi = P.  |P| is read off B and Psi, each distinct row
    of B once; P, a row per coordinate, is never built.  Its kernel is the
    joint kernel of the h rows of Psi.  h >= 1: a 0-dimensional map has
    lower bound 0, and extend_isomorphism refuses it first."""
    h = y.dim
    # row j of psi is the l1-minimal extension of the j-th coefficient
    entries = [(j, i, c) for j in range(h)
               for i, c in hahn_banach_extend(
                   y, [ONE if k == j else ZERO for k in range(h)])[0].items()]
    psi = RMatrix.from_entries(0, h, y.lo, y.hi, entries)
    b = y.basis_matrix
    if not is_right_inverse(psi, b):
        raise NormBudgetError("projection does not fix the subspace")
    return product_norm(b, psi), psi, {i for _, i, _ in entries}


def kernel_of_functionals(psi: RMatrix) -> Subspace:
    """Joint kernel of the functionals in psi's rows, on its column window."""
    return Subspace(psi.col_lo, psi.col_hi, tuple(row_kernel(psi)))


def _lex_key(v: WindowVector):
    """Sort key that orders vectors on one window as their dense
    coordinate tuples compare, computed from the nonzeros alone.

    At the first index where two vectors differ, at least one of them is
    nonzero.  A nonzero c at index i ranks below any later entry when
    c < 0, above it when c > 0, and against an entry at the same index by
    value: (0, i, c) for c < 0 and (2, -i, c) for c > 0 encode exactly
    that.  The closing (1,) stands for the zeros after the last nonzero.
    """
    return tuple((0, i, c) if c < 0 else (2, -i, c) for i, c in v.items()) + ((1,),)


def _canonical_basis_order(basis):
    return sorted(basis, key=lambda v: (min(v.support(), default=v.hi), _lex_key(v)))


def _verified(q: LinMap, budget):
    low = q.lower()
    if low > 0 and q.norm() / low <= budget * budget:
        return q
    return None


def complement_iso(z1: Subspace, z2: Subspace, budget):
    """A verified isomorphism q: z1 -> z2 with |q| |q^-1| <= budget^2.

    Deterministic staged search on the bases in canonical order: (1)
    disjointly supported bases -> sup-ratio matching, an exact isometry;
    (2) greedy sign-pattern matching of normalized bases; (3) exhaustive
    scaled bijections at small dimension.  Every candidate is verified
    exactly before acceptance.  Equal spans need no stage of their own:
    `extend_isomorphism` passes kernel bases read off a unique rref, so
    equal kernels come as equal bases, on which stage 1 or stage 2 (each
    vector matches itself first) returns the identity.
    """
    budget = frac(budget)
    if z1.dim != z2.dim:
        raise ParameterError("complement dimensions differ")
    if z1.dim == 0:
        return LinMap(z1, ())

    b1 = _canonical_basis_order(z1.basis)
    b2 = _canonical_basis_order(z2.basis)
    dom = Subspace(z1.lo, z1.hi, tuple(b1))

    # stage 1: disjoint supports both sides -> isometric sup-ratio matching
    if _disjoint_supports(b1) and _disjoint_supports(b2):
        images = tuple(w.scale(v.sup_norm() / w.sup_norm())
                       for v, w in zip(b1, b2))
        q = _verified(LinMap(dom, images), budget)
        if q is not None:
            return q

    # stage 2: greedy sign-pattern matching of sup-normalized bases
    def pattern(v):
        return tuple((c > 0) - (c < 0) for c in v.window(v.lo, v.hi))

    remaining = list(range(len(b2)))
    images = []
    for v in b1:
        pv = pattern(v)
        pick = None
        for idx in remaining:
            if pattern(b2[idx]) in (pv, tuple(-s for s in pv)):
                pick = idx
                break
        if pick is None:
            pick = remaining[0]
        remaining.remove(pick)
        w = b2[pick]
        sign = ONE if pattern(w) == pv or pv == tuple(0 for _ in pv) else -ONE
        images.append(w.scale(sign * v.sup_norm() / w.sup_norm()))
    q = _verified(LinMap(dom, tuple(images)), budget)
    if q is not None:
        return q

    # stage 3: exhaustive scaled bijections (small dimension only)
    if z1.dim <= 4:
        from itertools import permutations, product
        for perm in permutations(range(len(b2))):
            for signs in product((ONE, -ONE), repeat=len(b2)):
                images = tuple(
                    b2[perm[k]].scale(signs[k] * b1[k].sup_norm()
                                      / b2[perm[k]].sup_norm())
                    for k in range(len(b1)))
                q = _verified(LinMap(dom, images), budget)
                if q is not None:
                    return q
    raise ComplementNotFoundError(
        "no complement isomorphism within budget %s found" % budget)


def rational_sqrt_upper(x: Fraction, delta: Fraction) -> Fraction:
    """A rational s with sqrt(x) <= s <= (1 + delta) sqrt(x), verified;
    delta > 0, since for delta <= 0 no such s exists unless sqrt(x) is
    rational."""
    x = frac(x)
    delta = frac(delta)
    if x < 0:
        raise ParameterError("negative argument")
    if delta <= 0:
        raise ParameterError("delta must be positive")
    if x == 0:
        return ZERO
    p, q = x.numerator, x.denominator
    if isqrt(p) ** 2 == p and isqrt(q) ** 2 == q:
        return Fraction(isqrt(p), isqrt(q))
    k = 1
    while True:
        p, q = x.numerator, x.denominator
        s = Fraction(isqrt(p * q * k * k) + 1, q * k)
        if s * s <= (1 + delta) * (1 + delta) * x:
            return s
        k *= 2


def balanced_rescale(q: LinMap, delta=Fraction(1, 100)):
    """Scale q so both |sq| and |(sq)^-1| are near sqrt(|q| |q^-1|).

    s is a rational upper approximation of sqrt(|q^-1| / |q|); the
    postcondition max(|sq|, |(sq)^-1|)^2 <= (1+delta)^2 |q| |q^-1| is
    verified exactly before returning.
    """
    a, low = q.norm(), q.lower()
    if a == 0 or low == 0:
        raise ParameterError("balanced_rescale requires an invertible map")
    b = ONE / low
    s = rational_sqrt_upper(b / a, delta)
    r = q.scale(s)
    ra, rlow = r.norm(), r.lower()
    bound = (1 + frac(delta)) ** 2 * a * b
    if ra * ra > bound or (ONE / rlow) ** 2 > bound:
        raise NormBudgetError("rescale verification failed", measured=(ra, ONE / rlow))
    return r


@dataclass(frozen=True)
class ExtensionResult:
    w: RMatrix
    w_inv: RMatrix
    norm_w: Fraction
    norm_w_inv: Fraction
    report: dict = field(default_factory=dict)


def extend_isomorphism(t: LinMap,
                       config: RunConfig | None = None) -> ExtensionResult:
    """Extend the isomorphism t: y1 -> y2 to a verified automorphism of
    the ambient space: w = t on y1, |w|, |w^-1| <= c2, all entries
    rational, inverse returned alongside and checked by w . w^-1 = I.

    w = t P_1 + R (I - P_1) for the projection P_k = B_k Psi_k onto y_k
    and an n x n matrix R that maps ker Psi_1 isomorphically onto
    ker Psi_2 (R' likewise back).  When Psi_1 and Psi_2 each have h
    nonzero columns S_1, S_2, the kernels are spanned by the unit vectors
    off them, and R sends the k-th index outside S_1 to the k-th outside
    S_2: the isometry that complement_iso returns on those bases, which
    balanced_rescale keeps (s = 1), so distortion_Q is 1.  Otherwise R is
    complement_iso's map, rescaled, read through the kernel basis's
    coefficient extractor.  The checks below run on the returned w and
    w^-1 on either path.
    """
    config = config or RunConfig()
    y1 = t.domain
    h = y1.dim
    lo, hi = y1.lo, y1.hi
    n = hi - lo
    if any(not (lo <= i < hi) for w in t.images for i in w.support()):
        raise ParameterError("domain and image must share the ambient window")
    t = LinMap(y1, tuple(w.restrict(lo, hi) for w in t.images))
    y2 = Subspace(lo, hi, t.images)  # raises if images are dependent
    if h * h > config.c1 * config.c1 * n:
        raise ParameterError("subspace dimension exceeds c1 * sqrt(n)")
    report = {}

    up, low = t.norm(), t.lower()
    if low == 0:
        raise SingularMatrixError("map has a kernel; distortion is infinite")
    report["distortion_T"] = up / low
    if up >= config.rho or ONE / low >= config.rho:
        raise NormBudgetError("T norms must stay below rho", measured=(up, ONE / low))

    report["norm_P1"], psi1, cols1 = _projection_norm(y1)
    report["norm_P2"], psi2, cols2 = _projection_norm(y2)
    # R is n x n and agrees on ker Psi_1 with an isomorphism onto
    # ker Psi_2, R' with its inverse; both are 0 on the other side
    if len(cols1) == len(cols2) == h:
        # Psi has rank h, so ker Psi is spanned by the unit vectors off its
        # h columns: R matches them in index order, as complement_iso would
        free1 = [f for f in range(lo, hi) if f not in cols1]
        free2 = [f for f in range(lo, hi) if f not in cols2]
        if free1:
            report["distortion_Q"] = ONE
        r_mat = RMatrix.pairing(lo, hi, free2, free1)
        r_inv = RMatrix.pairing(lo, hi, free1, free2)
    else:
        # ker P = ker(B Psi) = ker Psi: h functionals instead of an n x n
        # elimination
        z1 = kernel_of_functionals(psi1)
        z2 = kernel_of_functionals(psi2)
        q = complement_iso(z1, z2, config.rho)
        report["distortion_Q"] = q.norm() / q.lower()
        r = balanced_rescale(q, config.delta)
        r_mat = RMatrix.from_columns(list(r.images)).matmul(
            r.domain.coefficient_extractor())
        r_inv = RMatrix.from_columns(list(r.domain.basis)).matmul(
            Subspace(lo, hi, tuple(r.images)).coefficient_extractor())

    # w = t P_1 + R (I - P_1) with P_1 = B_1 Psi_1 and t = B_2 on
    # coefficients, so w = (B_2 - R B_1) Psi_1 + R; w^-1 the same way
    b1, b2 = y1.basis_matrix, y2.basis_matrix
    w = extension_block(b2, r_mat, b1, psi1)
    w_inv = extension_block(b1, r_inv, b2, psi2)

    # w and w^-1 are square exact matrices, so w w^-1 = I gives w^-1 w = I
    if not is_right_inverse(w, w_inv):
        raise NormBudgetError("extension inverse verification failed")
    # column k of w B_1 is w v_k and column k of B_2 is t(v_k)
    if not is_product(w, b1, b2):
        raise NormBudgetError("extension does not agree with t on the basis")
    norm_w = op_norm_inf(w)
    norm_w_inv = op_norm_inf(w_inv)
    if norm_w > config.c2 or norm_w_inv > config.c2:
        raise NormBudgetError("extension norm exceeds c2",
                              measured=(norm_w, norm_w_inv))
    return ExtensionResult(w, w_inv, norm_w, norm_w_inv, report)
