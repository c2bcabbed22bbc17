import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge.adf.certset import CertSet
from qforge.adf.injections import NInjection, nice_ext, verify_nice_ext
from qforge.errors import (
    HypothesisViolationError,
    NotInjectiveError,
    ParameterError,
)

NATS = CertSet.naturals()
EVENS = CertSet.ap(0, 2)
ODDS = CertSet.ap(1, 2)


def doubling(domain=NATS, patch=()):
    return NInjection.affine(domain, 2, 0, patch)


class TestNInjection:
    def test_affine_values(self):
        g = doubling()
        assert [g.value(n) for n in range(4)] == [0, 2, 4, 6]
        assert g.range_set == EVENS
        assert g.preimage(6) == 3 and g.preimage(5) is None

    def test_patch_overrides_rule(self):
        g = doubling(patch={3: 7})
        assert g.value(3) == 7 and g.value(4) == 8
        assert g.preimage(7) == 3 and g.preimage(6) is None
        assert 6 not in g.range_set and 7 in g.range_set

    def test_first_match_wins(self):
        h = NInjection(NATS, ((EVENS, (2, 0)), (NATS, (2, 1))))
        assert h.value(0) == 0 and h.value(1) == 3 and h.value(2) == 4
        assert h.range_set == CertSet.ap(0, 4).union(CertSet.ap(3, 4))

    def test_uncovered_domain_rejected(self):
        with pytest.raises(ParameterError):
            NInjection(NATS, ((EVENS, (1, 0)),))

    def test_rule_collision_rejected(self):
        with pytest.raises(NotInjectiveError):
            NInjection(NATS, ((EVENS, (1, 0)), (ODDS, (1, 1))))

    def test_patch_collision_rejected(self):
        with pytest.raises(NotInjectiveError):
            doubling(patch={3: 4})
        with pytest.raises(NotInjectiveError):
            NInjection(NATS, ((NATS, (2, 0)),), ((3, 9), (5, 9)))

    def test_patch_frees_rule_value(self):
        # moving 2 away makes value 4 available for the patch at 3
        g = NInjection(NATS, ((NATS, (2, 0)),), ((2, 1), (3, 4)))
        assert g.value(2) == 1 and g.value(3) == 4
        assert g.preimage(4) == 3

    def test_restrict(self):
        g = doubling().restrict(EVENS)
        assert g.domain == EVENS and g.range_set == CertSet.ap(0, 4)

    def test_eq_star_same_rule(self):
        g = doubling()
        h = doubling(patch={5: 11})
        ok, exc = g.eq_star_on(h, NATS)
        assert ok and exc == [5]

    def test_eq_star_different_rule(self):
        g = doubling()
        h = NInjection.affine(NATS, 3, 0)
        ok, exc = g.eq_star_on(h, NATS)
        assert not ok and exc is None
        # restricted to a finite window the comparison is exact
        ok, exc = g.eq_star_on(h, CertSet.finite([0, 1, 2]))
        assert ok and exc == [1, 2]

    @given(st.dictionaries(st.integers(0, 20),
                           st.integers(50, 100).map(lambda n: 2 * n + 1),
                           max_size=4))
    @settings(max_examples=40)
    def test_eq_star_certificate_replay(self, patch):
        vals = list(patch.values())
        if len(set(vals)) != len(vals):
            return
        g = doubling()
        h = doubling(patch=patch)
        ok, exc = g.eq_star_on(h, NATS)
        assert ok
        for n in range(60):
            assert (g.value(n) == h.value(n)) == (n not in exc)


class TestNiceExt:
    def test_trivial_extension_is_g(self):
        # f = g on the evens, no targets: h must just be g
        g = doubling()
        f = g.restrict(EVENS)
        h = nice_ext(EVENS, NATS, NATS, f, g, [])
        ok, exc = h.eq_star_on(g, NATS)
        assert ok and exc == []

    def test_target_hit_by_redirection(self):
        g = doubling()
        f = g.restrict(EVENS)
        h = nice_ext(EVENS, NATS, NATS, f, g, [1])
        assert verify_nice_ext(h, EVENS, NATS, NATS, f, g, [1]) == []
        assert h.preimage(1) is not None
        # the redirected point is odd: f is untouched
        assert h.preimage(1) in ODDS

    def test_extends_f_not_g_on_disagreements(self):
        g = doubling()
        f = NInjection.affine(EVENS, 2, 0, patch={0: 101, 4: 103})
        h = nice_ext(EVENS, NATS, NATS, f, g, [])
        assert h.value(0) == 101 and h.value(4) == 103
        # g-values 0 and 8 are NOT f-values, so no odd point needs to move,
        # but if some odd x had g(x) in ran(f) it would
        assert verify_nice_ext(h, EVENS, NATS, NATS, f, g, []) == []

    def test_collision_with_f_resolved(self):
        # f sends 0 to 6 = g(3); the point 3 must be redirected
        g = doubling()
        f = NInjection.affine(EVENS, 2, 0, patch={0: 6, 6: 0})
        h = nice_ext(EVENS, NATS, NATS, f, g, [])
        assert verify_nice_ext(h, EVENS, NATS, NATS, f, g, []) == []
        assert h.value(0) == 6 and h.value(3) != 6

    def test_g_escaping_c_repaired(self):
        # c = evens but g sends odd points to odd values: every escape that
        # matters here is finite because we patch only finitely many points
        c = EVENS
        g = NInjection.affine(NATS, 4, 0, patch={1: 3})
        f = NInjection.affine(EVENS, 4, 0)
        h = nice_ext(EVENS, NATS, c, f, g, [])
        assert verify_nice_ext(h, EVENS, NATS, c, f, g, []) == []
        assert h.value(1) != 3 and h.value(1) in c

    def test_many_targets_forces_fill(self):
        g = doubling()
        f = g.restrict(EVENS)
        targets = [1, 3, 5, 7]
        h = nice_ext(EVENS, NATS, NATS, f, g, targets)
        assert verify_nice_ext(h, EVENS, NATS, NATS, f, g, targets) == []

    def test_targets_already_in_range_need_no_moves(self):
        g = doubling()
        f = g.restrict(EVENS)
        h = nice_ext(EVENS, NATS, NATS, f, g, [4, 8])
        ok, exc = h.eq_star_on(g, NATS)
        assert ok and exc == []

    def test_wrong_domain_is_listed_not_raised(self):
        # h lives on the evens, not on b = NATS: only the range is compared
        f, g = NInjection.identity(EVENS), NInjection.identity(NATS)
        assert verify_nice_ext(f, EVENS, NATS, NATS, f, g, []) == [
            "domain is not b"]
        h = NInjection.affine(EVENS, 1, 1)
        assert verify_nice_ext(h, EVENS, NATS, EVENS, f, g, []) == [
            "domain is not b", "range leaves c"]


class TestHypothesisChecks:
    def setup_method(self):
        self.g = doubling()
        self.f = self.g.restrict(EVENS)

    def check(self, number, a, b, c, f, g, big_f):
        with pytest.raises(HypothesisViolationError) as e:
            nice_ext(a, b, c, f, g, big_f)
        assert e.value.number == number

    def test_h1_not_subset(self):
        self.check(1, CertSet.ap(0, 3), EVENS, NATS,
                   NInjection.affine(CertSet.ap(0, 3), 2, 0),
                   NInjection.affine(EVENS, 2, 0), [])

    def test_h1_cofinite(self):
        a = NATS.diff(CertSet.finite([1]))
        self.check(1, a, NATS, NATS,
                   NInjection.affine(a, 2, 0), self.g, [])

    def test_h2_f_leaves_c(self):
        c = NATS.diff(CertSet.finite([0]))
        self.check(2, EVENS, NATS, c, self.f,
                   NInjection.affine(NATS, 2, 0, patch={0: 1}), [])

    def test_h2_wrong_domain(self):
        self.check(2, EVENS, NATS, NATS,
                   NInjection.affine(CertSet.ap(0, 4), 2, 0), self.g, [])

    def test_h3_wrong_domain(self):
        self.check(3, EVENS, NATS, NATS, self.f,
                   self.g.restrict(NATS.diff(CertSet.finite([9]))), [])

    def test_h4_range_escapes(self):
        # g maps odds onto odds: infinitely far outside c = evens
        g = NInjection(NATS, ((EVENS, (2, 0)), (ODDS, (1, 0))))
        f = NInjection.affine(EVENS, 2, 0)
        self.check(4, EVENS, NATS, EVENS, f, g, [])

    def test_h5_corange_finite(self):
        g = NInjection.identity(NATS)
        f = g.restrict(EVENS)
        self.check(5, EVENS, NATS, NATS, f, g, [])

    def test_h6_infinite_disagreement(self):
        f = NInjection.affine(EVENS, 4, 0)
        self.check(6, EVENS, NATS, NATS, f, self.g, [])

    def test_h7_target_outside_c(self):
        c = EVENS
        g = NInjection.affine(NATS, 4, 0)
        f = g.restrict(EVENS)
        self.check(7, EVENS, NATS, c, f, g, [5])


@given(st.dictionaries(st.integers(0, 15).map(lambda n: 2 * n),
                       st.integers(150, 170).map(lambda n: 2 * n + 1),
                       max_size=3),
       st.sets(st.integers(0, 50), max_size=3))
@settings(max_examples=40, deadline=None)
def test_nice_ext_randomized(f_patch, targets):
    vals = list(f_patch.values())
    if len(set(vals)) != len(vals):
        return
    g = doubling()
    f = NInjection.affine(EVENS, 2, 0, patch=f_patch)
    h = nice_ext(EVENS, NATS, NATS, f, g, targets)
    assert verify_nice_ext(h, EVENS, NATS, NATS, f, g, targets) == []
