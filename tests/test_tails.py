import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracles
from qforge import tails
from qforge.adf.certset import CertSet
from qforge.errors import (
    NotInjectiveError,
    NotInvertibleError,
    ParameterError,
    UnboundedError,
)
from qforge.linalg import WindowVector, coordinate_rows, frac, int_row
from qforge.simplex import polyhedral_max
from qforge.tails import (
    MAX_TAIL,
    TailVector,
    _minimal_period,
    agree_from,
    check_pi_injective,
    eq_star,
    lifting_index,
    pi_section_norm,
    quotient_norm,
    r_operator_inverse_norm,
    restriction_index,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
tail_vectors = st.builds(
    TailVector,
    prefix=st.lists(rationals, max_size=4).map(tuple),
    period=st.lists(rationals, min_size=1, max_size=4).map(tuple),
)


def tv(prefix, period):
    return TailVector(tuple(prefix), tuple(period))


def indicator_ap(a, d, length):
    """Indicator of the progression {a + d k} as one explicit period."""
    return tv([], [1 if i % d == a % d else 0 for i in range(length)])


EVENS = indicator_ap(0, 2, 2)
ODDS = indicator_ap(1, 2, 2)


class TestTailVector:
    def test_canonical_minimal_period(self):
        assert tv([], [1, 0, 1, 0]).period == (1, 0)

    def test_canonical_prefix_absorption(self):
        # prefix entry already matching the rotated tail disappears
        v = tv([0], [1, 0])
        assert v.prefix == () and v.period == (0, 1)
        assert [v.value(i) for i in range(4)] == [0, 1, 0, 1]

    def test_value_and_norms(self):
        v = tv([5, -7], [1, -2, 0])
        assert v.value(1) == -7
        assert v.value(2) == 1 and v.value(5) == 1
        assert v.tail_sup(0) == 7
        assert v.tail_sup(2) == 2
        assert quotient_norm(v) == 2

    def test_add_aligns_periods(self):
        s = EVENS.add(ODDS)
        assert s.prefix == () and s.period == (1,)
        t = tv([], [1, 0]).add(tv([], [0, 0, 1]))
        assert [t.value(i) for i in range(6)] == [1, 0, 2, 0, 1, 1]

    def test_from_window(self):
        v = TailVector.from_window(WindowVector(2, 4, (3, 4)))
        assert [v.value(i) for i in range(5)] == [0, 0, 3, 4, 0]
        assert v.period == (0,)

    def test_json_round_trip(self):
        v = tv(["1/2"], [1, "-3/4"])
        assert TailVector.from_json_obj(v.to_json_obj()) == v

    def test_add_aligns_within_the_bound(self):
        # periods 257 and 263 align on 67 591 > MAX_TAIL entries
        f, g = (tv([], (1,) + (0,) * (p - 1)) for p in (257, 263))
        with pytest.raises(ParameterError, match="the bound is %d" % MAX_TAIL):
            f.add(g)

    @given(tail_vectors, tail_vectors)
    @settings(max_examples=50)
    def test_pointwise_add(self, f, g):
        s = f.add(g)
        horizon = s.prefix_len + 2 * s.period_len + 3
        assert all(s.value(i) == f.value(i) + g.value(i) for i in range(horizon))

    @given(tail_vectors, tail_vectors)
    @settings(max_examples=50)
    def test_quotient_norm_triangle(self, f, g):
        assert quotient_norm(f.add(g)) <= quotient_norm(f) + quotient_norm(g)

    @given(tail_vectors, st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=100)
    def test_restrict_reads_the_values(self, f, lo, width):
        w = f.restrict(lo, lo + width)
        assert (w.lo, w.hi) == (lo, lo + width)
        assert w.coords == tuple(f.value(i) for i in range(lo, lo + width))

    @given(st.lists(tail_vectors, min_size=1, max_size=3), st.integers(0, 6),
           st.integers(0, 16))
    @settings(max_examples=100)
    def test_coordinate_rows_read_the_values(self, fs, lo, width):
        # windows start before, at and after the prefixes end, and the
        # widest spans four periods of up to 4 entries
        assert coordinate_rows(fs, lo, lo + width) == [
            tuple(f.value(i) for f in fs) for i in range(lo, lo + width)]

    def test_restrict_rejects_a_negative_index(self):
        with pytest.raises(ParameterError, match="negative index"):
            EVENS.restrict(-1, 2)

    @given(tail_vectors)
    def test_quotient_norm_is_eventual_sup(self, f):
        qn = quotient_norm(f)
        for k in range(f.prefix_len + 2):
            assert f.tail_sup(k) >= qn
        assert f.tail_sup(f.prefix_len) == qn
        assert (qn == 0) == agree_from(f, TailVector((), (0,)), f.prefix_len)


# few symbols, so that windows often agree; g's period is often f's
# rotated, by the prefix shift that makes the tails equal or by any step
few = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)])


@st.composite
def tail_pairs(draw):
    f = TailVector(tuple(draw(st.lists(few, max_size=4))),
                   tuple(draw(st.lists(few, min_size=1, max_size=4))))
    prefix = tuple(draw(st.lists(few, max_size=4)))
    shift = draw(st.one_of(st.just(len(prefix) - f.prefix_len),
                           st.integers(0, 3)))
    k = shift % f.period_len
    g = draw(st.one_of(
        st.just(TailVector(prefix, f.period[k:] + f.period[:k])),
        st.builds(TailVector, st.just(prefix),
                  st.lists(few, min_size=1, max_size=4).map(tuple))))
    return f, g


class TestEqStar:
    def test_prefix_difference(self):
        f = tv([9, 0], [1, 0])
        g = tv([0, 0], [1, 0])
        ok, exc = eq_star(f, g)
        assert ok and exc == [0]

    def test_periodic_difference(self):
        assert eq_star(EVENS, ODDS) == (False, None)

    def test_quotient_class_equality(self):
        assert eq_star(tv([5, 0], [1, 0]), tv([], [1, 0]))[0]

    @given(tail_pairs(), st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_window_comparison_matches_the_aligned_values(self, fg, n):
        f, g = fg
        assert agree_from(f, g, n) == dense_oracles.tails_agree_from(f, g, n)
        assert eq_star(f, g) == dense_oracles.tails_eq_star(f, g)

    def test_long_coprime_periods_compared_by_window(self):
        # periods 4093 and 4091 would align on 16 744 463 entries
        f, g = (tv([0], [0] + [1] * (p - 1)) for p in (4093, 4091))
        assert eq_star(f, g) == (False, None)
        assert eq_star(f, tv([1, 0], f.period[1:] + f.period[:1])) == (True, [0])


class TestLiftingIndex:
    def test_pure_periodic_gives_zero(self):
        w = lifting_index([EVENS])
        assert w.n == 0 and w.verified_value == 1

    def test_prefix_only_not_injective(self):
        with pytest.raises(NotInjectiveError):
            lifting_index([TailVector.from_window(WindowVector(0, 1, (1,)))])

    def test_perturbed_prefix(self):
        f = tv([10, 0], [1, 0])
        w = lifting_index([f])
        assert w.n == 1  # index 0 carries the big prefix value; 1 is clean
        assert f.tail_sup(w.n) <= w.verified_value * quotient_norm(f)

    @given(st.lists(rationals, max_size=3),
           st.lists(rationals, min_size=1, max_size=3),
           st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                    min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_window_certifies_all_combinations(self, pre, per, coeffs):
        f = tv(pre, per)
        fs = [f.add(EVENS.scale(3)), ODDS]
        try:
            w = lifting_index(fs, epsilon=frac("1/8"))
        except NotInjectiveError:
            return
        y = fs[0].scale(coeffs[0]).add(fs[1].scale(coeffs[1]))
        assert (1 - frac("1/8")) * y.tail_sup(w.n) <= quotient_norm(y)


class TestRestrictionIndex:
    def test_constant_tail(self):
        assert restriction_index([TailVector((), (1,))]).n == 1

    def test_prefix_spike(self):
        e5 = TailVector.from_window(WindowVector(5, 6, (1,)))
        assert restriction_index([e5]).n == 6

    def test_accepts_window_vectors(self):
        assert restriction_index([WindowVector(5, 6, (1,))]).n == 6

    @given(st.lists(rationals, max_size=3),
           st.lists(rationals, min_size=1, max_size=2),
           st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                    min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_window_certifies_all_combinations(self, pre, per, coeffs):
        fs = [tv(pre, per).add(EVENS), ODDS.scale(2)]
        try:
            w = restriction_index(fs, epsilon=frac("1/8"))
        except NotInvertibleError:
            return
        y = fs[0].scale(coeffs[0]).add(fs[1].scale(coeffs[1]))
        assert (1 - frac("1/8")) * y.tail_sup(0) <= y.restrict(0, w.n).sup_norm()


class TestPiSectionNorm:
    def test_normalized_singleton_isometric(self):
        assert pi_section_norm(check_pi_injective([EVENS]), 0) == 1

    def test_disjoint_normalized_family(self):
        assert pi_section_norm(check_pi_injective([EVENS, ODDS]), 0) == 1

    def test_perturbed_prefix_expands(self):
        f = tv([3], [1, 0])
        val = pi_section_norm(check_pi_injective([f]), 0)
        assert val == 3  # the section must reproduce the spike at 0
        assert pi_section_norm(check_pi_injective([f]), 1) == 1

    def test_at_least_one(self):
        for fs in ([EVENS], [EVENS, ODDS], [tv([2], [1, 0, 0])]):
            assert pi_section_norm(check_pi_injective(fs), 0) >= 1

    def test_not_injective(self):
        with pytest.raises(NotInjectiveError,
                           match=re.escape("(Fraction(-2, 1), Fraction(1, 1))")):
            pi_section_norm(check_pi_injective([EVENS, EVENS.scale(2)]), 0)


small_tails = st.builds(
    TailVector,
    prefix=st.lists(st.sampled_from([0, 1, -1, 2]), max_size=3).map(tuple),
    period=st.lists(st.sampled_from([0, 1, -1, Fraction(1, 2)]), min_size=1,
                    max_size=3).map(tuple),
)


class TestROperator:
    def test_singleton_isometry_past_period(self):
        assert r_operator_inverse_norm(check_pi_injective([EVENS]), 0, 2) == 1

    def test_window_too_short(self):
        # evens vanish at odd indices: the window {1} cannot pin the coefficient
        with pytest.raises(NotInvertibleError,
                           match=r"restriction to \[1, 2\) is not injective on the span"):
            r_operator_inverse_norm(check_pi_injective([EVENS]), 1, 2)

    @given(st.lists(small_tails, min_size=1, max_size=3), st.integers(0, 5),
           st.integers(0, 14))
    @settings(max_examples=100, deadline=None)
    def test_rows_past_one_period_change_nothing(self, fs, n, width):
        # the norm reads rows only to one period past n and the prefix;
        # here every row of [n, n + width) is a constraint
        try:
            span = check_pi_injective(fs)
        except NotInjectiveError:
            return
        rows = [[f.value(i) for f in fs] for i in range(span.m, span.m + span.p)]
        window = [[f.value(i) for f in fs] for i in range(n, n + width)]
        try:
            want = polyhedral_max(rows, window)[0]
        except UnboundedError:
            with pytest.raises(NotInvertibleError):
                r_operator_inverse_norm(span, n, n + width)
            return
        assert r_operator_inverse_norm(span, n, n + width) == want

    def test_inverse_norm_weakly_decreasing(self):
        fs = [tv([2], [1, 0]), tv([], [0, 0, 1])]
        cuts = [3, 4, 6, 9, 12]
        span = check_pi_injective(fs)
        vals = [r_operator_inverse_norm(span, 0, c) for c in cuts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] >= 1


def _same_as_oracle(norm, oracle, *args):
    """norm(*args) gives the oracle's value, or its NotInvertibleError."""
    try:
        want = oracle(*args)
    except NotInvertibleError as e:
        with pytest.raises(NotInvertibleError, match=re.escape(str(e))):
            norm(*args)
        return
    assert norm(*args) == want


class TestPeriodRowClasses:
    """The norms read the span's period rows as classes up to sign; the
    all-rows versions in dense_oracles are the reference."""

    @given(st.lists(small_tails, min_size=1, max_size=3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_norms_match_the_all_rows_oracles(self, fs, data):
        try:
            span = check_pi_injective(fs)
        except NotInjectiveError:
            return
        if data.draw(st.booleans()):
            span = span.sub(data.draw(st.permutations(range(len(fs))).flatmap(
                lambda ks: st.integers(1, len(ks)).map(lambda k: ks[:k]))))
        m, p = span.m, span.p
        # windows that start inside the prefix or past it, and cover part
        # of a period, one period or several
        n = data.draw(st.one_of(st.integers(0, max(0, m - 1)),
                                st.integers(m, m + p)))
        width = data.draw(st.one_of(st.integers(0, max(0, p - 1)), st.just(p),
                                    st.integers(2, 3).map(lambda k: k * p),
                                    st.integers(0, 3 * p + 2)))
        _same_as_oracle(r_operator_inverse_norm,
                        dense_oracles.r_operator_inverse_norm, span, n, n + width)
        _same_as_oracle(pi_section_norm, dense_oracles.pi_section_norm,
                        span, data.draw(st.integers(0, m + 1)))

    @given(st.lists(small_tails, min_size=1, max_size=3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_injectivity_matches_the_all_rows_oracle(self, fs, data):
        # often one more tail: a combination of the others, shifted by a
        # finite prefix, so that the check fails and names its witness
        if data.draw(st.booleans()):
            extra = TailVector(tuple(data.draw(st.lists(
                st.sampled_from([0, 1, Fraction(-2, 3)]), max_size=3))), (0,))
            for f in fs:
                extra = extra.add(f.scale(data.draw(
                    st.sampled_from([0, 1, -1, Fraction(1, 3)]))))
            fs.insert(data.draw(st.integers(0, len(fs))), extra)
        witness = dense_oracles.pi_injective_witness(fs)
        if witness is None:
            assert check_pi_injective(fs).tails == tuple(fs)
            return
        with pytest.raises(NotInjectiveError) as e:
            check_pi_injective(fs)
        assert str(e.value) == (
            "combination with coefficients %s lies in the vanishing ideal"
            % (tuple(witness),))

    def test_a_window_hitting_every_class_past_the_prefix_runs_no_lp(
            self, monkeypatch):
        # period rows (1, 1), (0, 1), (1, 0) at positions 1, 2, 3
        span = check_pi_injective([tv([3], [1, 0, 1]), tv([], [0, 1, 1])])
        assert (span.m, span.p) == (1, 3)
        monkeypatch.setattr(tails, "polyhedral_max", None)
        # one period from the prefix on, one that wraps, and several
        for n, n_prime in ((1, 4), (2, 5), (1, 100)):
            assert r_operator_inverse_norm(span, n, n_prime) == 1
        # rows (1,) and (-1,) are one class, which one position hits
        flip = check_pi_injective([tv([], [1, -1])])
        assert flip.classes == ([(1,)], (0, 0))
        assert r_operator_inverse_norm(flip, 1, 2) == 1
        calls = []

        def recorded(objectives, constraints):
            calls.append(len(constraints))
            return polyhedral_max(objectives, constraints)

        monkeypatch.setattr(tails, "polyhedral_max", recorded)
        # one position short misses the class (1, 0), or (1, 1): the LP
        # finds |c_1| = 2 on the rest of the ball
        assert r_operator_inverse_norm(span, 1, 3) == 2
        assert r_operator_inverse_norm(span, 2, 4) == 2
        assert calls == [2, 2]

    def test_classes_are_built_once_per_span(self, monkeypatch):
        span = check_pi_injective([tv([3], [0, 1]), ODDS, tv([], [0, 0, 1])])
        sub = span.sub([2, 0])
        reads = []
        int_window = TailVector.int_window

        def counted(tail, lo, hi):
            reads.append((lo, hi))
            return int_window(tail, lo, hi)

        monkeypatch.setattr(TailVector, "int_window", counted)
        assert r_operator_inverse_norm(sub, 1, 7) == 1
        classes = vars(sub)["classes"]
        # period rows (0, 0), (1, 1), (0, 0), (0, 1), (1, 0), (0, 1)
        assert classes == ([(1, 1), (0, 1), (1, 0)], (None, 0, None, 1, 2, 1))
        assert r_operator_inverse_norm(sub, 2, 9) == r_operator_inverse_norm(
            sub, 3, 40) == 1
        with pytest.raises(NotInvertibleError):
            r_operator_inverse_norm(sub, 1, 3)
        assert pi_section_norm(sub, 0) == 3
        assert vars(sub)["classes"] is classes
        # each tail's period once, then its value in the section norm's
        # prefix row
        assert reads == [(1, 7), (1, 7), (0, 1), (0, 1)]


def _ball_vertices(fs, lo, hi):
    """Vertices of {c : |sum c_k f_k(i)| <= 1 for i in [lo, hi)}."""
    return dense_oracles.vertex_enumerate(
        [[f.value(i) for f in fs] for i in range(lo, hi)], dim=len(fs))


def _sup_over(fs, c, lo, hi):
    return max(abs(sum(ck * f.value(i) for ck, f in zip(c, fs)))
               for i in range(lo, hi))


class TestSubSpanNorms:
    """The norms of a subspan against vertex enumeration, on the whole
    family's alignment rather than the subspan's own."""

    @given(st.lists(small_tails, min_size=1, max_size=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_against_vertex_enumeration(self, fs, data):
        try:
            span = check_pi_injective(fs)
        except NotInjectiveError:
            return
        ks = data.draw(st.permutations(range(len(fs))).flatmap(
            lambda ks: st.integers(1, len(ks)).map(lambda k: ks[:k])))
        sub = span.sub(ks)
        subs = [fs[k] for k in ks]
        end = span.m + span.p  # one period past every prefix of the family
        ball = _ball_vertices(subs, span.m, end)
        n = data.draw(st.integers(0, span.m + 1))
        assert pi_section_norm(sub, n) == max(
            _sup_over(subs, c, n, max(n, span.m) + span.p) for c in ball)
        lo = data.draw(st.integers(0, 4))
        hi = lo + data.draw(st.integers(1, 6))
        try:
            window = _ball_vertices(subs, lo, hi)
        except UnboundedError:
            with pytest.raises(NotInvertibleError):
                r_operator_inverse_norm(sub, lo, hi)
            return
        assert r_operator_inverse_norm(sub, lo, hi) == max(
            _sup_over(subs, c, span.m, end) for c in window)

    def test_section_norm_past_the_prefix_builds_no_rows(self, monkeypatch):
        span = check_pi_injective([tv([3], [0, 1]), ODDS, tv([], [0, 0, 1])])
        sub = span.sub([2, 0])
        # a row built now would call None
        monkeypatch.setattr(tails, "coordinate_rows", None)
        assert (sub.m, sub.p) == (1, 6)
        assert pi_section_norm(sub, 1) == pi_section_norm(sub, 5) == 1
        assert "rows" not in vars(sub) and "classes" not in vars(sub)


@st.composite
def rational_pairs(draw):
    """(f, g) with rational values: g shares f's period, rotated, behind a
    prefix of its own, or has a period of its own."""
    f = draw(tail_vectors)
    k = draw(st.integers(0, f.period_len - 1))
    period = draw(st.one_of(st.just(f.period[k:] + f.period[:k]),
                            st.lists(rationals, min_size=1, max_size=4).map(tuple)))
    return f, TailVector(tuple(draw(st.lists(rationals, max_size=4))), period)


def _norms(fs, n, lo, hi):
    """Every norm of the span of fs, with NotInvertibleError as a value."""
    span = check_pi_injective(fs)
    try:
        inverse = r_operator_inverse_norm(span, lo, hi)
    except NotInvertibleError:
        inverse = NotInvertibleError
    return (span.tails, pi_section_norm(span, n), inverse,
            lifting_index(fs), restriction_index(fs))


class TestNormsReadIntegers:
    """The norms, the injectivity proof and the window comparisons read
    each tail's integers: with `TailVector.window` refused, they return
    what they return otherwise."""

    @given(st.lists(tail_vectors, min_size=1, max_size=3), rational_pairs(),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_no_window_is_read(self, fs, fg, data):
        f, g = fg
        n, lo, width = (data.draw(st.integers(0, k)) for k in (12, 6, 8))
        try:
            norms = _norms(fs, n % 6, lo, lo + width)
        except NotInjectiveError:
            norms = None
        comparisons = (dense_oracles.tails_agree_from(f, g, n),
                       dense_oracles.tails_eq_star(f, g))

        def refused(tail, lo, hi):
            raise AssertionError("TailVector.window read on [%d, %d)" % (lo, hi))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TailVector, "window", refused)
            if norms is not None:
                assert _norms(fs, n % 6, lo, lo + width) == norms
            assert (agree_from(f, g, n), eq_star(f, g)) == comparisons


def _int_form(prefix, period):
    """(prefix ints, period ints, den) over the least common denominator."""
    ints, den = int_row(prefix + period)
    return tuple(ints[:len(prefix)]), tuple(ints[len(prefix):]), den


# a repeated base pattern, so that short periods occur, with a stray tail
symbols = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)])
patterns = st.builds(lambda base, reps, extra: tuple(base * reps + extra),
                     st.lists(symbols, min_size=1, max_size=5),
                     st.integers(1, 6), st.lists(symbols, max_size=2))


class TestCanonicalForm:
    @settings(max_examples=300, deadline=None)
    @given(patterns)
    def test_minimal_period_matches_the_divisor_scan(self, pattern):
        assert _minimal_period(pattern) == dense_oracles.minimal_period(pattern)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(symbols, max_size=8).map(tuple), patterns)
    def test_stored_form_matches_the_rotation_loop(self, prefix, period):
        t = TailVector(prefix, period)
        want = dense_oracles.tail_canonical_form(prefix, period)
        assert (t.prefix, t.period) == want
        assert t._ints == _int_form(*want)

    @pytest.mark.parametrize("prefix, period, ints", [
        # "3/6" is absorbed: it matches the period rotated by one, and its
        # written denominator 6 leaves with it
        (("-2/4", "7", "3/6"), ("-1/2", "5/10"), ((-1, 14), (1, -1), 2)),
        (("4/2",), ("2",), ((), (2,), 1)),
        (("-1/3", "0"), ("0", "0"), ((-1,), (0,), 3)),
        ((), ("-6/4", "2/3", "-6/4", "2/3"), ((), (-9, 4), 6)),
    ])
    def test_integer_form_is_over_the_least_denominator(
            self, prefix, period, ints):
        t = TailVector(prefix, period)
        assert t._ints == ints == _int_form(*dense_oracles.tail_canonical_form(
            tuple(map(frac, prefix)), tuple(map(frac, period))))
        assert t == TailVector(t.prefix, t.period)
        assert hash(t) == hash(TailVector(t.prefix, t.period))

    def test_long_period_with_a_late_member_within_budget(self):
        # one member at the end of a 2^16 period: the divisor scan
        # compared the period once per divisor of its length
        t0 = time.monotonic()
        t = CertSet(3, 2 ** 16, frozenset({1}), frozenset({0})).indicator_tail()
        assert time.monotonic() - t0 < 1
        assert t.period_len == 2 ** 16
