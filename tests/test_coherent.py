from unittest import mock

import pytest

from qforge.adf.coherent import (
    CoherentFamily,
    boolean_image,
    chain_set,
    separator_from_embedding,
)
from qforge.adf.certset import CertSet
from qforge.adf.families import OrdinalProgressionFamily
from qforge.adf.ordinals import OrdinalIdx
from qforge.errors import HypothesisViolationError, ParameterError


def N(n):
    """The natural number n."""
    return OrdinalIdx(0, 0, n)


def W(k):
    """omega * k."""
    return OrdinalIdx(0, k, 0)


def pos(q, r, j):
    return OrdinalIdx.from_fiber(OrdinalIdx(0, q, r), j)


@pytest.fixture(scope="module")
def system():
    fam = OrdinalProgressionFamily(cells=8, blocks=2)
    return CoherentFamily(fam, W(2))


class TestFiniteStages:
    def test_base_values_enumerate_fibers(self, system):
        s = system.stage(N(3))
        fam = system.family
        for r in range(3):
            fiber = fam.fiber_set(OrdinalIdx(0, 0, r))
            assert [s.value(pos(0, r, j)) for j in range(5)] == \
                [fiber.nth(j) for j in range(5)]

    def test_base_preimage(self, system):
        s = system.stage(N(3))
        for j in range(5):
            v = s.value(pos(0, 1, j))
            assert s.preimage(v) == pos(0, 1, j)
        assert s.preimage(3) is None  # residue class 3 is outside block 0

    def test_out_of_window_rejected(self, system):
        with pytest.raises(ParameterError):
            system.stage(N(2)).value(pos(0, 2, 0))

    def test_successor_coherence_is_exact(self, system):
        assert system.coherence_exceptions(N(2), N(5)) == []


class TestLimitStage:
    def test_injective_on_sample(self, system):
        s = system.stage(W(1))
        seen = {}
        for r in range(5):
            for j in range(8):
                v = s.value(pos(0, r, j))
                assert v not in seen, (r, j, seen[v])
                seen[v] = (r, j)

    def test_values_inside_w(self, system):
        s = system.stage(W(1))
        w = system.family.w_set(W(1))
        for r in range(4):
            for j in range(6):
                assert s.value(pos(0, r, j)) in w

    def test_surjective_onto_w_prefix(self, system):
        s = system.stage(W(1))
        w = system.family.w_set(W(1))
        for k in range(10):
            v = w.nth(k)
            p = s.preimage(v)
            assert p is not None and s.value(p) == v

    def test_preimage_outside_w(self, system):
        s = system.stage(W(1))
        assert s.preimage(3) is None

    @pytest.mark.parametrize("alpha", [W(1), W(2)])
    def test_preimage_of_high_rank_points(self, system, alpha):
        # the rank of a point once set how far the chain ran, and step 18
        # needs fiber 17, past the valuation cap
        s = system.stage(alpha)
        w = system.family.w_set(alpha)
        for k in (10, 17, 20, 200):
            v = w.nth(k)
            p = s.preimage(v)
            assert p is not None and s.value(p) == v

    def test_preimage_past_the_valuation_cap(self, system):
        # no fiber holds a point of valuation 17: it is refused where the
        # limit range set W holds it, and has no preimage elsewhere
        v = 8 * 2 ** 17
        with pytest.raises(ParameterError, match="valuation index beyond cap"):
            system.stage(W(1)).preimage(v)
        assert system.stage(N(3)).preimage(v) is None
        assert system.stage(W(1)).preimage(v + 1) is None
        with pytest.raises(ParameterError, match="valuation index beyond cap"):
            system.stage(W(2)).preimage(v + 1)
        assert system.stage(W(1).successor()).preimage(v + 1) is None

    def test_coherence_certificates_replay(self, system):
        for gamma in (N(1), N(3), N(6)):
            exc = system.coherence_exceptions(gamma, W(1))
            s_l, s_g = system.stage(W(1)), system.stage(gamma)
            assert all(s_l.value(p) != s_g.value(p) for p in exc)
            # spot-check agreement off the certificate
            for r in range(gamma.c0):
                for j in range(6):
                    p = pos(0, r, j)
                    if p not in exc:
                        assert s_l.value(p) == s_g.value(p)

    def test_stages_above_limit_extend_it(self, system):
        s_l, s_up = system.stage(W(1)), system.stage(W(1).successor())
        for r in range(3):
            for j in range(5):
                assert s_l.value(pos(0, r, j)) == s_up.value(pos(0, r, j))
        fiber = system.family.fiber_set(OrdinalIdx(0, 1, 0))
        assert s_up.value(pos(1, 0, 2)) == fiber.nth(2)


class TestSecondLimit:
    def test_values_and_coherence_at_omega_2(self, system):
        s = system.stage(W(2))
        w2 = system.family.w_set(W(2))
        seen = set()
        for q in range(2):
            for r in range(3):
                for j in range(4):
                    v = s.value(pos(q, r, j))
                    assert v in w2 and v not in seen
                    seen.add(v)

    def test_coverage_at_omega_2(self, system):
        s = system.stage(W(2))
        w2 = system.family.w_set(W(2))
        for k in range(8):
            v = w2.nth(k)
            p = s.preimage(v)
            assert p is not None and s.value(p) == v

    def test_coherence_with_mid_stages(self, system):
        for gamma in (N(2), W(1), W(1) .successor()):
            exc = system.coherence_exceptions(gamma, W(2))
            s_b, s_g = system.stage(W(2)), system.stage(gamma)
            assert all(s_b.value(p) != s_g.value(p) for p in exc)
        # agreement off the certificate for a successor-of-limit stage
        gamma = W(1).successor()
        exc = set(system.coherence_exceptions(gamma, W(2)))
        for q, rr in ((0, 0), (0, 2), (1, 0)):
            xi = OrdinalIdx(0, q, rr)
            if xi < gamma:
                for j in range(5):
                    p = pos(q, rr, j)
                    if p not in exc:
                        assert system.stage(W(2)).value(p) == \
                            system.stage(gamma).value(p)


class TestDerivedSets:
    def test_derived_equals_member_for_base_fibers(self, system):
        xi = OrdinalIdx(0, 0, 2)
        assert system.derived_set(xi) == system.family.member(xi)

    def test_image_under_limit_stage_almost_member(self, system):
        xi = OrdinalIdx(0, 0, 1)
        img = system.image_of_fiber(W(1), xi)
        ok, exc = img.eq_star(system.family.member(xi))
        assert ok
        # replay: the image matches the stage values
        s = system.stage(W(1))
        vals = {s.value(pos(0, 1, j)) for j in range(40)}
        for v in sorted(vals)[:30]:
            assert v in img

    def test_images_pairwise_almost_disjoint(self, system):
        idx = [OrdinalIdx(0, 0, 0), OrdinalIdx(0, 0, 1),
               OrdinalIdx(0, 1, 0), OrdinalIdx(0, 1, 1)]
        imgs = [system.image_of_fiber(W(2), xi) for xi in idx]
        for i in range(len(imgs)):
            for j in range(i + 1, len(imgs)):
                assert imgs[i].almost_disjoint(imgs[j]) is not None


class TestBooleanImage:
    def setup_method(self):
        fam = OrdinalProgressionFamily(cells=8, blocks=2)
        self.sys = CoherentFamily(fam, W(2))
        self.idx = [OrdinalIdx(0, 0, r) for r in range(4)] + \
            [OrdinalIdx(0, 1, r) for r in range(2)]

    def img(self, xs):
        return boolean_image(self.sys, xs)

    def test_union_law(self):
        x, y = self.idx[:3], self.idx[2:5]
        lhs = self.img(x).union(self.img(y))
        ok, _ = lhs.eq_star(self.img(sorted(set(x) | set(y))))
        assert ok

    def test_intersection_law(self):
        x, y = self.idx[:4], self.idx[2:]
        lhs = self.img(x).intersect(self.img(y))
        ok, _ = lhs.eq_star(self.img(sorted(set(x) & set(y))))
        assert ok

    def test_difference_law(self):
        x, y = self.idx[:4], self.idx[1:2]
        lhs = self.img(x).diff(self.img(y))
        ok, _ = lhs.eq_star(self.img(sorted(set(x) - set(y))))
        assert ok

    def test_complement_case(self):
        comp = boolean_image(self.sys, self.idx[:2], complement=True)
        straight = self.img(self.idx[:2])
        ok, _ = comp.eq_star(straight.complement())
        assert ok

    def test_monomorphism_distinct_images(self):
        a, b = self.img(self.idx[:2]), self.img(self.idx[:3])
        ok, _ = a.eq_star(b)
        assert not ok

    def test_empty_index_set(self):
        assert self.img([]).is_empty()


class TestSeparatorAndChain:
    def test_separator_both_directions(self, system):
        f_idx = [OrdinalIdx(0, 0, 0), OrdinalIdx(0, 0, 2)]
        out_idx = [OrdinalIdx(0, 0, 1), OrdinalIdx(0, 1, 0)]
        sep = separator_from_embedding(system, f_idx, out_idx)
        fam = system.family
        for xi, exc in sep.inside_exceptions.items():
            m = fam.member(xi)
            for n in range(300):
                assert (n not in m) or (n in sep.separator) or (n in exc)
        for xi, meet in sep.outside_exceptions.items():
            m = fam.member(xi)
            for n in range(300):
                assert not (n in m and n in sep.separator) or n in meet

    def test_chain_is_increasing_with_exact_steps(self, system):
        alphas = [N(1), N(3), W(1), W(1).successor(), W(2)]
        for a, b in zip(alphas, alphas[1:]):
            assert chain_set(system, a).diff(chain_set(system, b)).is_empty()
        # members enter the chain exactly at their index
        xi = OrdinalIdx(0, 1, 0)
        ok, _ = system.family.member(xi).subset_star(
            chain_set(system, OrdinalIdx(0, 1, 1)))
        assert ok
        assert system.family.member(xi).almost_disjoint(
            chain_set(system, W(1))) == []

    def test_chain_sets_are_the_separators_read_once(self):
        fam = OrdinalProgressionFamily(cells=8, blocks=2)
        fresh = OrdinalProgressionFamily(cells=8, blocks=2)
        system = CoherentFamily(fam, W(2))
        stages = [OrdinalIdx(0, q, r) for q in (0, 1) for r in range(6)] + [W(2)]
        with mock.patch.object(fam, "separator", wraps=fam.separator) as sep:
            for a in stages:
                assert chain_set(system, a) == fresh.separator(a)
            for a in stages:  # the memo answers a second pass
                chain_set(system, a)
        # one separator per stage, each read once
        assert [c.args for c in sep.call_args_list] == [(a,) for a in stages]
        with pytest.raises(ParameterError):
            chain_set(system, W(2).successor())


class MeetsPreviousRange(OrdinalProgressionFamily):
    """Fiber 1 of block 0 also holds the first point of fiber 0."""

    def fiber_set(self, xi):
        fiber = super().fiber_set(xi)
        if xi == OrdinalIdx(0, 0, 1):
            return fiber.union(CertSet.finite([self.member(N(0)).nth(0)]))
        return fiber


class LeavesLimitRange(OrdinalProgressionFamily):
    """Fiber 1 of block 0 also holds 1, which lies below every W-set."""

    def fiber_set(self, xi):
        fiber = super().fiber_set(xi)
        if xi == OrdinalIdx(0, 0, 1):
            return fiber.union(CertSet.finite([1]))
        return fiber


class TestCheckedNotRepaired:
    @pytest.mark.parametrize("family, number", [(MeetsPreviousRange, 6),
                                                (LeavesLimitRange, 2)])
    def test_bad_fiber_is_rejected(self, family, number):
        system = CoherentFamily(family(cells=8, blocks=2), W(2))
        with pytest.raises(HypothesisViolationError,
                           match=r"hypothesis \(%d\)" % number):
            system.coherence_exceptions(N(3), W(1))
        with pytest.raises(HypothesisViolationError):
            system.stage(W(1)).value(pos(0, 1, 0))
