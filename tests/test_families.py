import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforge.adf.certset import CertSet
from qforge.adf.families import (
    FamilyGenerator,
    OrdinalProgressionFamily,
    mad_census,
    make_family,
    separation_find,
)
from qforge.adf.ordinals import OrdinalIdx
from qforge.errors import NotAlmostDisjointError, ParameterError


class TestGenerators:
    def test_progression_kind(self):
        fam = make_family(FamilyGenerator("progression", count=3))
        assert fam[0] == CertSet.ap(1, 2)
        assert fam[1] == CertSet.ap(2, 4)
        assert fam[2] == CertSet.ap(4, 8)
        assert all(inter == [] for inter in fam.intersections.values())

    def test_branch_kind(self):
        fam = make_family(FamilyGenerator("branch", count=4, depth=4))
        assert len(fam) == 4
        for (i, j), inter in fam.intersections.items():
            assert len(inter) <= 4  # shared tree prefixes only

    def test_branch_prefix_sharing(self):
        # words 0000 and 0001 share three prefixes, 0000 and 1000 share none
        fam = make_family(FamilyGenerator("branch", count=16, depth=4))
        assert len(fam.intersections[(0, 1)]) == 3
        assert len(fam.intersections[(0, 8)]) == 0

    def test_luzin_kind(self):
        fam = make_family(FamilyGenerator("luzin", count=30))
        assert len(fam) == 30
        # every later set meets every earlier set
        for i in range(30):
            for j in range(i + 1, 30):
                assert len(fam.intersections[(i, j)]) >= 1
        assert fam.luzin_bound[0] == 64

    def test_explicit_kind(self):
        fam = make_family(FamilyGenerator(
            "explicit", sets=(CertSet.ap(0, 2), CertSet.ap(1, 2))))
        assert len(fam) == 2

    def test_not_ad_rejected(self):
        with pytest.raises(NotAlmostDisjointError):
            make_family(FamilyGenerator(
                "explicit", sets=(CertSet.ap(0, 2), CertSet.ap(0, 4))))

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            FamilyGenerator("unknown", count=2)
        with pytest.raises(ParameterError):
            make_family(FamilyGenerator("branch", count=40, depth=4))


@pytest.mark.parametrize("gen", [FamilyGenerator("luzin", count=20),
                                 FamilyGenerator("branch", count=16, depth=4)])
def test_equal_certificates_are_one_object(gen):
    certs = list(make_family(gen).intersections.values())
    first = {}
    for cert in certs:
        assert first.setdefault(tuple(cert), cert) is cert
    assert len(first) < len(certs)


class TestAlmostDisjointCheck:
    def test_valuation_classes(self):
        a = CertSet.ap(2, 4)
        b = CertSet.ap(4, 8)
        assert a.almost_disjoint(b) == []

    def test_witness(self):
        with pytest.raises(NotAlmostDisjointError) as e:
            CertSet.ap(0, 2).almost_disjoint(CertSet.ap(0, 4))
        assert e.value.witness is not None


class TestSeparation:
    def test_evens_odds(self):
        sep = separation_find([CertSet.ap(0, 2)], [CertSet.ap(1, 2)])
        assert sep.separator == CertSet.ap(0, 2)
        assert sep.inside_exceptions == ((),)
        assert sep.outside_exceptions == ((),)

    def test_valuation_split(self):
        fam = make_family(FamilyGenerator("progression", count=4))
        sep = separation_find([fam[1]], [fam[2], fam[3]])
        assert sep.separator == fam[1]

    def test_luzin_subfamilies_certified(self):
        fam = make_family(FamilyGenerator("luzin", count=12))
        sep = separation_find(list(fam.sets[:6]), list(fam.sets[6:]))
        v = sep.separator
        for b, exc in zip(fam.sets[:6], sep.inside_exceptions):
            for n in range(150):
                assert (n not in b) or (n in v) or (n in exc)
        for c, exc in zip(fam.sets[6:], sep.outside_exceptions):
            for n in range(150):
                assert not ((n in c) and (n in v)) or n in exc


class TestMadCensus:
    def setup_method(self):
        self.fam = make_family(FamilyGenerator("progression", count=3))

    def test_whole_line_not_covered(self):
        census = mad_census(self.fam, CertSet.naturals())
        assert census.infinite_meet == (0, 1, 2)
        assert not census.residual_finite  # {v2 >= 3} and 0 remain
        assert census.covering_indices == ()

    def test_single_member_covered(self):
        census = mad_census(self.fam, self.fam[0])
        assert census.infinite_meet == (0,)
        assert census.covering_indices == (0,)
        assert census.finite_meet[1] == () and census.finite_meet[2] == ()

    def test_union_minus_finite(self):
        x = self.fam[0].union(self.fam[1]).diff(CertSet.finite([1, 2, 6]))
        census = mad_census(self.fam, x)
        assert census.infinite_meet == (0, 1)
        assert census.covering_indices == (0, 1)
        assert census.residual_finite


class TestOrdinalProgressionFamily:
    def setup_method(self):
        self.fam = OrdinalProgressionFamily(cells=8, blocks=4)

    def test_members_partition_residue_class(self):
        # fibers of block q partition {q + 8 m : m >= 1} by valuation
        found = set()
        for r in range(4):
            a = self.fam.member(OrdinalIdx(0, 1, r))
            found |= set(a.elements_below(200))
        rest = {1 + 8 * m for m in range(1, 25) if (m % 16) == 0}
        expect = {1 + 8 * m for m in range(1, 25) if 1 + 8 * m < 200} - rest
        assert {x for x in found if x < 200} == expect

    def test_fiber_equals_member_exactly(self):
        for xi in (OrdinalIdx(0, 0, 0), OrdinalIdx(0, 2, 3)):
            a = self.fam.member(xi)
            w = self.fam.w_set(xi)
            assert a.intersect(w).is_empty()

    def test_w_set_is_union_of_prior_fibers(self):
        alpha = OrdinalIdx(0, 1, 2)
        w = self.fam.w_set(alpha)
        union = CertSet.empty()
        for r in range(16):
            union = union.union(self.fam.member(OrdinalIdx(0, 0, r)))
        for r in range(2):
            union = union.union(self.fam.member(OrdinalIdx(0, 1, r)))
        for n in range(400):
            assert (n in w) == (n in union)

    def test_separator_directions(self):
        alpha = OrdinalIdx(0, 2, 0)
        v = self.fam.separator(alpha)
        for xi in (OrdinalIdx(0, 0, 1), OrdinalIdx(0, 1, 3)):
            ok, _ = self.fam.member(xi).subset_star(v)
            assert ok
        for xi in (OrdinalIdx(0, 2, 0), OrdinalIdx(0, 3, 1)):
            assert self.fam.member(xi).almost_disjoint(v) == []

    @given(st.integers(1, 400))
    @settings(max_examples=80)
    def test_index_of_inverts_membership(self, n):
        xi = self.fam.index_of(n)
        if xi is None:
            assert all(n not in self.fam.member(OrdinalIdx(0, q, r))
                       for q in range(4) for r in range(6))
        else:
            assert n in self.fam.member(xi)
