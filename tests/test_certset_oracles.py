"""The certified-set kernels against their dense originals.

`dense_oracles` keeps the normal form and the Boolean operations of
`CertSet` as they were when they scanned every divisor of the modulus,
every residue modulo the lcm and every point below the threshold.  The
normal form is unique, so the library must give exactly the same
(threshold, modulus, residues, below), the same certificates and the
same witnesses, also from constructor input that is not canonical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracles
from qforge.adf.certset import CertSet
from qforge.errors import NotAlmostDisjointError, ParameterError

# moduli with one prime and with several, as the families and the
# coherent system build them and beyond
moduli = st.one_of(st.integers(1, 16),
                   st.sampled_from([12, 30, 32, 45, 49, 60, 64]))


def raw_forms(below=st.integers(0, 90), moduli=moduli):
    """Constructor arguments: residues may be negative or above the
    modulus, and below elements may lie at or above the threshold."""
    return st.tuples(st.integers(0, 80), moduli,
                     st.lists(st.integers(-5, 130), max_size=6),
                     st.lists(below, max_size=8))


cert_sets = raw_forms().map(lambda raw: CertSet(*raw))


def form(s):
    return s.threshold, s.modulus, s.residues, s.below


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ParameterError, NotAlmostDisjointError) as e:
        return type(e), str(e), getattr(e, "witness", None)


@settings(max_examples=400, deadline=None)
@given(raw_forms(below=st.integers(-3, 90)))
def test_constructor_gives_the_oracle_normal_form(raw):
    assert outcome(lambda *r: form(CertSet(*r)), *raw) == outcome(
        dense_oracles.certset_normal_form, *raw)


@pytest.mark.parametrize("raw", [
    (0, 1, [], [-1]),
    (10, 12, [1, 5], [3, -2]),
    (0, 60, [0, 12], [-7, 100]),
])
def test_negative_below_raises_on_both_sides(raw):
    with pytest.raises(ParameterError):
        dense_oracles.certset_normal_form(*raw)
    with pytest.raises(ParameterError):
        CertSet(*raw)


@settings(max_examples=300, deadline=None)
@given(cert_sets, cert_sets)
def test_boolean_operations_give_the_oracle_normal_form(a, b):
    combine = dense_oracles.certset_combine
    assert form(a.union(b)) == combine(a, b, lambda x, y: x or y)
    assert form(a.intersect(b)) == combine(a, b, lambda x, y: x and y)
    assert form(a.diff(b)) == combine(a, b, lambda x, y: x and not y)
    assert form(b.diff(a)) == combine(b, a, lambda x, y: x and not y)


# moduli that divide 120, so that no union of them lifts past MAX_LIFT
divisor_sets = raw_forms(moduli=st.sampled_from(
    [1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120])).map(
    lambda raw: CertSet(*raw))


@settings(max_examples=300, deadline=None)
@given(st.lists(divisor_sets, max_size=5), st.data())
def test_union_all_gives_the_fold(sets, data):
    # the sets again, some of them repeated, in any order
    if sets:
        sets = data.draw(st.permutations(
            sets + data.draw(st.lists(st.sampled_from(sets), max_size=3))))
    assert form(CertSet.union_all(sets)) == form(
        dense_oracles.union_fold(sets))


def test_union_all_of_no_set_is_empty():
    assert form(CertSet.union_all([])) == form(dense_oracles.union_fold([]))
    assert CertSet.union_all([]) == CertSet.empty()


@settings(max_examples=300, deadline=None)
@given(cert_sets, cert_sets)
def test_certificates_and_witnesses_match_the_oracle(a, b):
    assert a.eq_star(b) == dense_oracles.certset_eq_star(a, b)
    assert a.subset_star(b) == dense_oracles.certset_subset_star(a, b)
    assert b.subset_star(a) == dense_oracles.certset_subset_star(b, a)
    assert outcome(a.almost_disjoint, b) == outcome(
        dense_oracles.certset_almost_disjoint, a, b)


@settings(max_examples=300, deadline=None)
@given(cert_sets)
def test_rank_counts_the_elements_below(s):
    # rank is the closed-form inverse of nth; the scan is its definition
    for n in range(s.threshold + 3 * s.modulus + 5):
        scan = len(s.elements_below(n + 1)) - 1 if n in s else None
        assert s.rank(n) == scan
        if scan is not None:
            assert s.nth(scan) == n


def test_least_period_over_several_primes():
    # multiples of 12 written modulo 60, and a class that needs all of 60
    assert form(CertSet(0, 60, [0, 12, 24, 36, 48], [])) == (
        0, 12, frozenset({0}), frozenset())
    assert CertSet(0, 60, [1, 31], []).modulus == 30
    assert CertSet(0, 60, [1, 13], []).modulus == 60
