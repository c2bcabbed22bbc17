from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import (
    coefficients,
    dot,
    dual_norm,
    image,
    kernel_subspace,
    matrix_apply,
    projection_parts,
    to_dense,
)
from qforge import geometry, simplex
from qforge.config import RunConfig
from qforge.errors import (
    NormBudgetError,
    ParameterError,
)
from qforge.geometry import (
    LinMap,
    Subspace,
    balanced_rescale,
    complement_iso,
    extend_isomorphism,
    hahn_banach_extend,
    lower_bound,
    op_norm,
    rational_sqrt_upper,
)
from qforge.linalg import RMatrix, WindowVector, frac, op_norm_inf

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def wv(*coords, lo=0):
    return WindowVector(lo, lo + len(coords), tuple(coords))


def make_map(basis, images):
    dom = Subspace(basis[0].lo, basis[0].hi, tuple(basis))
    return LinMap(dom, tuple(images))


class TestSubspace:
    def test_dependent_basis_rejected(self):
        with pytest.raises(ParameterError):
            Subspace(0, 2, (wv(1, 2), wv(2, 4)))

    def test_coefficients_round_trip(self):
        # the oracle's coefficients, which its stage 0 and `image` read
        y = Subspace(0, 3, (wv(1, 0, 1), wv(0, 1, 0)))
        v = y.combine([frac(2), frac(-1)])
        assert coefficients(y, v) == [2, -1]
        assert coefficients(y, wv(1, 0, 0)) is None

    def test_coefficient_extractor(self):
        y = Subspace(0, 3, (wv(1, 1, 0), wv(0, 1, 1)))
        e = y.coefficient_extractor()
        for coeffs in ([frac(1), frac(0)], [frac(3), frac(-2)]):
            v = y.combine(coeffs)
            assert list(matrix_apply(e, v).coords) == coeffs

    def test_extractor_needs_private_pivots(self):
        # independent, but both vectors are nonzero at every coordinate
        y = Subspace(0, 2, (wv(1, 1), wv(1, -1)))
        with pytest.raises(ParameterError, match="no private coordinates"):
            y.coefficient_extractor()

    def test_vector_outside_the_window_is_outside_the_span(self):
        y = Subspace(0, 2, (wv(1, 0),))
        assert coefficients(y, wv(1, 0, 0, 5)) is None
        assert coefficients(y, wv(2, 0, 0, 0)) == [2]

    def test_one_coefficient_per_vector(self):
        y = Subspace(0, 3, (wv(1, 0, 1), wv(0, 1, 0)))
        t = LinMap(y, (wv(1, 1), wv(0, 2)))
        for coeffs in ([2], [2, 1, 7]):
            with pytest.raises(ParameterError, match="one coefficient per vector"):
                y.combine(coeffs)
        assert image(t, y.combine([1, 1])) == wv(1, 3)


class TestOpNormAndLowerBound:
    def test_scaled_identity(self):
        t = make_map([wv(1, 0), wv(0, 1)], [wv(2, 0), wv(0, 2)])
        assert op_norm(t)[0] == 2
        assert lower_bound(t)[0] == 2

    def test_kernel_gives_zero(self):
        t = make_map([wv(1, 0), wv(0, 1)], [wv(1, 0), wv(1, 0)])
        val, witness = lower_bound(t)
        assert val == 0
        assert not witness.is_zero()
        assert image(t, witness).is_zero()

    def test_witnesses_attain(self):
        t = make_map([wv(1, 0, 0, 0), wv(0, 1, 1, 0)],
                     [wv(1, 2, 0, 0), wv(0, "1/2", 1, 0)])
        up, w_up = op_norm(t)
        assert image(t, w_up).sup_norm() == up * w_up.sup_norm()
        low, w_low = lower_bound(t)
        assert image(t, w_low).sup_norm() == low * w_low.sup_norm()

    def test_disjoint_witness_is_the_first_extreme(self):
        # disjoint supports on both sides: each ratio of sup norms is
        # attained by its basis vector, and the witness is the first vector
        # of the extreme ratio (3 twice, 1 once), scaled to sup norm 1
        t = make_map([wv(2, 0, 0, 0, 0, 0), wv(0, 4, 0, 0, 0, 0), wv(0, 0, -1, 0, 0, 0)],
                     [wv(0, 0, 0, 6, 0, 0), wv(0, 0, 0, 0, 12, 0), wv(0, 0, 0, 0, 0, 1)])
        assert op_norm(t) == (3, wv(1, 0, 0, 0, 0, 0))
        assert lower_bound(t) == (1, wv(0, 0, -1, 0, 0, 0))

    @given(st.lists(rationals, min_size=4, max_size=4),
           st.lists(rationals, min_size=4, max_size=4),
           st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                    min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_lower_bound_inequality_sampled(self, img0, img1, coeffs):
        t = make_map([wv(1, 0, 0, 0), wv(0, 1, 0, 0)],
                     [wv(*img0), wv(*img1)])
        low, _ = lower_bound(t)
        x = t.domain.combine(coeffs)
        assert image(t, x).sup_norm() >= low * x.sup_norm()


class TestHahnBanach:
    def test_full_space_unique_representer(self):
        y = Subspace(0, 2, (wv(1, 0), wv(0, 1)))
        u, val = hahn_banach_extend(y, [frac(3), frac(-1)])
        assert u.coords == (3, -1) and val == 4

    def test_diagonal_span(self):
        y = Subspace(0, 2, (wv(1, 1),))
        u, val = hahn_banach_extend(y, [frac(1)])
        assert val == 1
        assert dot(u, wv(1, 1)) == 1

    def test_zero_functional(self):
        y = Subspace(0, 3, (wv(1, 1, 0),))
        u, val = hahn_banach_extend(y, [frac(0)])
        assert val == 0 and u.is_zero()

    @given(st.lists(rationals, min_size=3, max_size=3),
           st.lists(rationals, min_size=3, max_size=3),
           st.lists(rationals, min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_norm_preservation_vs_vertex_oracle(self, b0, b1, phi):
        from qforge.linalg import rank
        if rank([b0, b1]) < 2:
            return
        y = Subspace(0, 3, (wv(*b0), wv(*b1)))
        u, val = hahn_banach_extend(y, phi)
        for v, p in zip(y.basis, phi):
            assert dot(u, v) == p
        assert val == u.l1_norm() == dual_norm(y, phi)


class TestBuildProjection:
    def test_coordinate_projection(self):
        y = Subspace(0, 3, (wv(1, 0, 0),))
        p = projection_parts(y)[0]
        assert op_norm_inf(p) == 1
        assert p.matmul(p).equals(p)

    def test_disjoint_indicator_span_norm_one(self):
        y = Subspace(0, 4, (wv(1, 1, 0, 0), wv(0, 0, 1, -1)))
        p = projection_parts(y)[0]
        assert p.matmul(p).equals(p)
        assert op_norm_inf(p) == 1
        for v in y.basis:
            assert matrix_apply(p, v).coords == v.coords

    def test_kernel_complements(self):
        y = Subspace(0, 4, (wv(1, 1, 0, 0),))
        p = projection_parts(y)[0]
        z = kernel_subspace(p, 0, 4)
        assert z.dim == 3
        for v in z.basis:
            assert matrix_apply(p, v).is_zero()

    def test_certificate_rejects_wrong_functionals(self, monkeypatch):
        # Psi . B = I is the projection's only certificate: functionals
        # twice too large give Psi . B = 2 I, and P no longer fixes y
        extend = geometry.hahn_banach_extend

        def doubled(y, phi):
            u, value = extend(y, phi)
            return u.scale(2), 2 * value
        monkeypatch.setattr(geometry, "hahn_banach_extend", doubled)
        y = Subspace(0, 4, (wv(1, 1, 0, 0), wv(0, 0, 1, -1)))
        with pytest.raises(NormBudgetError, match="does not fix"):
            projection_parts(y)


    def test_layout_is_built_once_per_subspace(self, monkeypatch):
        # the h extensions of a projection solve on one column layout,
        # each through hahn_banach_extend, and a second projection of the
        # same subspace lays out nothing
        built, extended = [], []

        class Counted(simplex.L1Layout):
            def __init__(self, vectors):
                built.append(len(vectors))
                super().__init__(vectors)
        extend = geometry.hahn_banach_extend

        def counted(y, phi):
            extended.append(tuple(phi))
            return extend(y, phi)
        monkeypatch.setattr(geometry, "L1Layout", Counted)
        monkeypatch.setattr(geometry, "hahn_banach_extend", counted)
        y = Subspace(0, 6, (wv(1, 1, 0, 0, 1, 1), wv(0, 1, 1, 0, 0, 1),
                            wv(1, 0, 0, -1, 1, 0)))
        p = projection_parts(y)[0]
        assert p.matmul(p).equals(p)
        assert built == [3] and len(extended) == 3
        assert projection_parts(y)[0].equals(p)
        assert built == [3] and len(extended) == 6


class TestComplementIso:
    def test_identity_case(self):
        z = Subspace(0, 3, (wv(1, 0, 0), wv(0, 1, 0)))
        q = complement_iso(z, z, budget=frac(2))
        up, _ = op_norm(q)
        low, _ = lower_bound(q)
        assert up == low == 1

    def test_disjoint_coordinates(self):
        z1 = Subspace(0, 4, (wv(1, 0, 0, 0), wv(0, 1, 0, 0)))
        z2 = Subspace(0, 4, (wv(0, 0, 1, 0), wv(0, 0, 0, 1)))
        q = complement_iso(z1, z2, budget=frac(2))
        assert op_norm(q)[0] / lower_bound(q)[0] == 1

    def test_scaled_disjoint_is_isometry(self):
        z1 = Subspace(0, 4, (wv(2, 0, 0, 0), wv(0, 0, 3, 3)))
        z2 = Subspace(0, 4, (wv(0, 5, 0, 0), wv(0, 0, 0, 1)))
        q = complement_iso(z1, z2, budget=frac(2))
        assert op_norm(q)[0] == lower_bound(q)[0]

    def test_projection_kernels_in_dim8(self):
        y1 = Subspace(0, 8, (wv(1, 1, 0, 0, 0, 0, 0, 0),))
        y2 = Subspace(0, 8, (wv(0, 0, 0, 0, 0, 0, 1, 1),))
        z1 = kernel_subspace(projection_parts(y1)[0], 0, 8)
        z2 = kernel_subspace(projection_parts(y2)[0], 0, 8)
        q = complement_iso(z1, z2, budget=frac(4))
        assert op_norm(q)[0] / lower_bound(q)[0] <= 16


class TestBalancedRescale:
    def test_sqrt_upper(self):
        for x, d in ((Fraction(2), Fraction(1, 100)),
                     (Fraction(9, 4), Fraction(1, 10))):
            s = rational_sqrt_upper(x, d)
            assert s * s >= x
            assert s * s <= (1 + d) ** 2 * x

    def test_delta_must_be_positive(self):
        # for delta <= 0 only sqrt(x) itself would do, and the search for
        # it never ends when sqrt(x) is irrational
        for d in (Fraction(0), Fraction(-1, 100)):
            with pytest.raises(ParameterError, match="delta"):
                rational_sqrt_upper(Fraction(2), d)
        z = Subspace(0, 2, (wv(1, 0), wv(0, 1)))
        q = LinMap(z, (wv(2, 0), wv(0, 1)))  # s^2 = 1/2
        with pytest.raises(ParameterError, match="delta"):
            balanced_rescale(q, delta=0)

    def test_scalar_case(self):
        z = Subspace(0, 2, (wv(1, 0), wv(0, 1)))
        q = LinMap(z, (wv(4, 0), wv(0, 4)))
        r = balanced_rescale(q)
        up, _ = op_norm(r)
        low, _ = lower_bound(r)
        assert up / low == 1  # distortion preserved
        assert up <= Fraction(101, 100)

    def test_norm_balance_bound(self):
        z = Subspace(0, 2, (wv(1, 0), wv(0, 1)))
        q = LinMap(z, (wv(3, 1), wv(0, "1/2")))
        a, _ = op_norm(q)
        b = 1 / lower_bound(q)[0]
        r = balanced_rescale(q)
        ra, _ = op_norm(r)
        rb = 1 / lower_bound(r)[0]
        bound = Fraction(101, 100) ** 2 * a * b
        assert ra * ra <= bound and rb * rb <= bound

    def test_scaling_by_one_keeps_the_map(self):
        z = Subspace(0, 2, (wv(1, 0), wv(0, 1)))
        q = LinMap(z, (wv(1, 1), wv(0, 1)))
        assert q.scale(1) is q and q.scale(Fraction(1)) is q
        with pytest.raises(ParameterError):
            q.scale(1.0)
        # s = 1 here, so the result is q with its norms computed once
        assert balanced_rescale(q) is q


class TestExtendIsomorphism:
    def config(self, **kw):
        return RunConfig(**kw)

    def test_full_space_map_is_itself(self):
        y = Subspace(0, 2, (wv(1, 0), wv(0, 1)))
        t = LinMap(y, (wv(0, 1), wv(1, 0)))
        res = extend_isomorphism(t, config=self.config(c1=2))
        assert to_dense(res.w) == [[0, 1], [1, 0]]
        assert res.norm_w == res.norm_w_inv == 1

    def test_identity_on_coordinate_line(self):
        y = Subspace(0, 2, (wv(1, 0),))
        t = LinMap(y, y.basis)
        res = extend_isomorphism(t, config=self.config())
        eye = RMatrix.identity(0, 2)
        assert res.w.matmul(res.w_inv).equals(eye)
        assert matrix_apply(res.w, wv(1, 0)).coords == (1, 0)

    def test_indicator_to_indicator_dim4(self):
        y1 = Subspace(0, 4, (wv(1, 1, 0, 0),))
        t = LinMap(y1, (wv(0, 0, 1, 1),))
        res = extend_isomorphism(t, config=self.config())
        assert matrix_apply(res.w, wv(1, 1, 0, 0)).coords == (0, 0, 1, 1)
        assert res.norm_w <= 64 and res.norm_w_inv <= 64
        eye = RMatrix.identity(0, 4)
        assert res.w.matmul(res.w_inv).equals(eye)
        assert res.w_inv.matmul(res.w).equals(eye)

    def test_norm_budget_violation_reported(self):
        y = Subspace(0, 2, (wv(1, 0), wv(0, 1)))
        t = LinMap(y, (wv(10, 0), wv(0, 10)))  # distortion fine, norm too big
        with pytest.raises(NormBudgetError):
            extend_isomorphism(t, config=self.config(rho=4, c1=2))

    def test_dimension_precondition(self):
        y = Subspace(0, 2, (wv(1, 0), wv(0, 1)))
        t = LinMap(y, y.basis)
        with pytest.raises(ParameterError):
            extend_isomorphism(t, config=self.config(c1=1))  # 4 > 1 * 2
