"""The pairwise certificates and the census of a family against loops.

`families._pairwise_certificates` certifies every pair of a family in
one pass.  `dense_oracles.pairwise_certificates` is the loop it replaced:
one `CertSet.almost_disjoint` per pair, in (i, j) order.  Both must give
the same dict, in the same key order, or raise the same error with the
same witness for the first pair that is not almost disjoint.  The one
difference: a pair whose intersection the loop refuses to lift (above
`MAX_LIFT` residues) is certified by the pass, with its exact
intersection.

`families.mad_census` decides the census by densities.
`dense_oracles.mad_census` is the census it replaced, by `CertSet`
operations only; both must give the same `MadCensus`, with the finite
meets in the same order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracles
from qforge.adf.certset import CertSet
from qforge.adf.families import (
    FamilyGenerator,
    _pairwise_certificates,
    mad_census,
    make_family,
)
from qforge.errors import NotAlmostDisjointError, ParameterError

patches = st.tuples(st.integers(0, 60), st.lists(st.integers(0, 80),
                                                 max_size=8))


@st.composite
def ad_families(draw):
    """Sets whose residues modulo a common modulus are disjoint, each with
    its own threshold and explicit part, so that the sets' own moduli
    are the divisors the normal form finds."""
    m = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 30, 60]))
    n = draw(st.integers(0, 7))
    owner = draw(st.lists(st.integers(-1, n - 1), min_size=m, max_size=m))
    return [CertSet(t, m, [r for r in range(m) if owner[r] == k], below)
            for k, (t, below) in enumerate(draw(st.lists(
                patches, min_size=n, max_size=n)))]


raw_sets = st.tuples(st.integers(0, 60),
                     st.sampled_from([1, 2, 3, 4, 6, 8, 12, 30, 60]),
                     st.lists(st.integers(0, 59), max_size=3),
                     st.lists(st.integers(0, 80), max_size=8)).map(
    lambda raw: CertSet(*raw))


def outcome(fn, *args):
    try:
        return list(fn(*args).items())
    except (ParameterError, NotAlmostDisjointError) as e:
        return type(e), str(e), getattr(e, "witness", None)


@settings(max_examples=300, deadline=None)
@given(ad_families())
def test_almost_disjoint_families_give_the_oracle_certificates(sets):
    assert outcome(_pairwise_certificates, sets) == outcome(
        dense_oracles.pairwise_certificates, sets)


@settings(max_examples=300, deadline=None)
@given(st.lists(raw_sets, max_size=6))
def test_any_family_gives_the_oracle_outcome(sets):
    assert outcome(_pairwise_certificates, sets) == outcome(
        dense_oracles.pairwise_certificates, sets)


def first_failing_pair(sets):
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            try:
                dense_oracles.certset_almost_disjoint(sets[i], sets[j])
            except NotAlmostDisjointError as e:
                return (i, j), (str(e), e.witness)
    return None, None


@settings(max_examples=300, deadline=None)
@given(ad_families(), st.data())
def test_the_first_failing_pair_raises(sets, data):
    # a copy of an infinite set, moved up by a multiple of its modulus,
    # meets it infinitely; it may meet other sets too
    k = data.draw(st.integers(0, len(sets)))
    if k == len(sets) or not sets[k].is_infinite():
        sets = sets + [CertSet.ap(data.draw(st.integers(0, 9)),
                                  data.draw(st.integers(1, 6)))]
        k = len(sets) - 1
    base = sets[k]
    twin = CertSet(base.threshold + data.draw(st.integers(0, 3)) * base.modulus,
                   base.modulus, base.residues, [])
    sets.insert(data.draw(st.integers(0, len(sets))), twin)
    pair, expected = first_failing_pair(sets)
    assert pair is not None
    try:
        _pairwise_certificates(sets)
    except NotAlmostDisjointError as e:
        assert (str(e), e.witness) == expected
    else:
        raise AssertionError("pair %s is not almost disjoint" % (pair,))
    assert outcome(_pairwise_certificates, sets) == outcome(
        dense_oracles.pairwise_certificates, sets)


def test_the_raising_pair_is_the_first_in_order():
    # only (0, 2) and (1, 3) are not almost disjoint, with witnesses
    # (1, 4) and (0, 4); (0, 2) comes first
    sets = [CertSet.ap(1, 4), CertSet.ap(0, 4), CertSet.ap(1, 2),
            CertSet.ap(0, 2)]
    assert first_failing_pair(sets)[0] == (0, 2)
    try:
        _pairwise_certificates(sets)
    except NotAlmostDisjointError as e:
        assert e.witness == (1, 4)
        assert str(e) == "intersection contains the progression {1 + 4 k}"
    else:
        raise AssertionError("the family is not almost disjoint")


@pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 1, 0)])
def test_points_held_by_one_rule_and_another_below_part(order):
    # 4 and 8 are at or above the threshold 2 of the first set, which
    # holds them by its rule {0 mod 4}; the second holds them in its below
    # part, under its threshold 10, and the third meets neither
    sets = [CertSet(3, 4, [0], [1]), CertSet(10, 4, [1], [4, 8]),
            CertSet.ap(2, 4)]
    assert (sets[0].threshold, sets[1].threshold) == (2, 10)
    assert sets[0].below == {1} and sets[1].below == {4, 8}
    sets = [sets[k] for k in order]
    certs = _pairwise_certificates(sets)
    pair = tuple(sorted((order.index(0), order.index(1))))
    assert certs[pair] == [4, 8]
    assert outcome(_pairwise_certificates, sets) == outcome(
        dense_oracles.pairwise_certificates, sets)


# odd and even residues modulo 2p and 2q for coprime odd p, q above
# MAX_LIFT: the rules never meet, but the lcm lifts either side to more
# than MAX_LIFT residues
P, Q = 131073, 131075


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2),
       st.lists(st.integers(0, P - 1), min_size=1, max_size=3),
       st.lists(st.integers(0, Q - 1), min_size=1, max_size=3),
       st.lists(patches, min_size=2, max_size=2))
def test_pairs_the_loop_refuses_to_lift_are_certified(order, odd, even,
                                                     parts):
    (ta, below_a), (tb, below_b) = parts
    a = CertSet(ta, 2 * P, [2 * r + 1 for r in odd], below_a)
    b = CertSet(tb, 2 * Q, [2 * r for r in even], below_b)
    sets = [[a, b], [b, a], [a, CertSet.finite(range(12)), b]][order]
    oracle = outcome(dense_oracles.pairwise_certificates, sets)
    assert oracle[0] is ParameterError
    certs = _pairwise_certificates(sets)
    assert list(certs) == [(i, j) for i in range(len(sets))
                           for j in range(i + 1, len(sets))]
    for (i, j), cert in certs.items():
        s, t = sets[i], sets[j]
        top = max(s.threshold, t.threshold)
        assert cert == [x for x in range(top) if x in s and x in t]


@st.composite
def census_cases(draw):
    """An explicit family of the infinite sets of ad_families, and an x
    that is drawn on its own or is a union of members with a finite
    patch added and removed, so that the family often covers it."""
    sets = tuple(s for s in draw(ad_families()) if s.is_infinite())
    family = make_family(FamilyGenerator("explicit", sets=sets))
    if sets and draw(st.booleans()):
        add, remove = draw(st.lists(st.integers(0, 80), max_size=4)), \
            draw(st.lists(st.integers(0, 80), max_size=4))
        x = dense_oracles.union_fold(
            draw(st.lists(st.sampled_from(sets), max_size=4))
            + [CertSet.finite(add)]).diff(CertSet.finite(remove))
    else:
        x = draw(raw_sets)
    return family, x


@settings(max_examples=300, deadline=None)
@given(census_cases())
def test_census_gives_the_oracle_census(case):
    family, x = case
    got, want = mad_census(family, x), dense_oracles.mad_census(family, x)
    assert got == want
    assert list(got.finite_meet) == list(want.finite_meet)


@settings(max_examples=200, deadline=None)
@given(ad_families(), raw_sets, st.data())
def test_census_of_a_set_inside_a_few_members(sets, cut, data):
    # x is a part of a few members plus a finite patch, so the other
    # members meet it finitely and only the meets cover the residual
    sets = tuple(s for s in sets if s.is_infinite())
    family = make_family(FamilyGenerator("explicit", sets=sets))
    inside = data.draw(st.lists(st.sampled_from(sets), max_size=2)) if sets else []
    patch = data.draw(st.lists(st.integers(0, 80), max_size=4))
    x = dense_oracles.union_fold(inside).intersect(cut).union(
        CertSet.finite(patch))
    got, want = mad_census(family, x), dense_oracles.mad_census(family, x)
    assert got == want
    assert list(got.finite_meet) == list(want.finite_meet)
