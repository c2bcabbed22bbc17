import pytest
from hypothesis import given
from hypothesis import strategies as st

from qforge.adf.ordinals import OrdinalIdx
from qforge.errors import ParameterError

coeffs = st.integers(0, 5)
ordinals = st.builds(OrdinalIdx, coeffs, coeffs, coeffs)


class TestOrder:
    def test_basic_comparisons(self):
        w = OrdinalIdx(0, 1, 0)
        assert OrdinalIdx(0, 0, 1000) < w < w.successor() < OrdinalIdx(0, 2, 0)
        assert OrdinalIdx(1, 0, 0) > OrdinalIdx(0, 5, 5)

    @given(ordinals, ordinals, ordinals)
    def test_total_order_transitive(self, a, b, c):
        if a <= b <= c:
            assert a <= c


class TestStructure:
    def test_limit_and_successor(self):
        assert OrdinalIdx(0, 1, 0).is_limit()
        assert OrdinalIdx(1, 0, 0).is_limit()
        assert not OrdinalIdx(0, 0, 3).is_limit()
        assert OrdinalIdx(0, 0, 3).is_successor()
        assert OrdinalIdx(0, 0, 3).predecessor() == OrdinalIdx(0, 0, 2)
        with pytest.raises(ParameterError):
            OrdinalIdx(0, 1, 0).predecessor()
        assert not OrdinalIdx(0, 0, 0).is_limit()

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 9))
    def test_fiber_round_trip(self, c1, c0, j):
        xi = OrdinalIdx(0, c1, c0)
        beta = OrdinalIdx.from_fiber(xi, j)
        assert beta.fiber_and_offset() == (xi, j)


class TestFundamental:
    def test_omega_times_k(self):
        lam = OrdinalIdx(0, 3, 0)
        seq = [lam.fundamental(n) for n in range(4)]
        assert seq == [OrdinalIdx(0, 2, n) for n in range(4)]
        assert all(a < b for a, b in zip(seq, seq[1:]))
        assert all(x < lam for x in seq)

    def test_omega_squared(self):
        lam = OrdinalIdx(1, 0, 0)
        seq = [lam.fundamental(n) for n in range(4)]
        assert seq == [OrdinalIdx(0, n, 0) for n in range(4)]

    def test_successor_rejected(self):
        with pytest.raises(ParameterError):
            OrdinalIdx(0, 0, 4).fundamental(1)
