"""`extend_isomorphism` against its earlier construction.

`dense_oracles.extend_isomorphism` always finds the complement map through
`kernel_of_functionals`, `complement_iso` and `balanced_rescale`, and forms
I - P_1 and I - P_2.  The library reads a coordinate complement off the
projection functionals when each has h nonzero columns, and builds w by
one factored formula on both paths.  On near-indicator, tail-window and
dense random instances both must give the same bytes (w, w^-1, their
norms and the report, in its key order) or raise the same error type.
The pinned dense instance below has functionals with more than h nonzero
columns, so the complement search runs on it.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dense_oracles
from qforge import forcing, geometry
from qforge.config import RunConfig
from qforge.errors import ParameterError, QForgeError
from qforge.forcing import run_generic
from qforge.geometry import LinMap, Subspace, extend_isomorphism
from qforge.jsonio import canonical_dumps, rmatrix_to_json
from qforge.linalg import WindowVector
from qforge.tails import TailVector
from test_acceptance import _forge_families

CONFIG = RunConfig(rho=Fraction(4), c2=Fraction(64))


def wv(*coords):
    return WindowVector(0, len(coords), coords)


# ker Psi_1 is not spanned by unit vectors here: Psi_1 has 3 nonzero
# columns for h = 2
DENSE = ((wv(0, 2, 0, -1), wv(2, 0, 0, 0)), (wv(0, 0, 1, 2), wv(0, 1, 1, -1)))


def outcome(extend, t):
    try:
        ext = extend(t, CONFIG)
    except QForgeError as e:
        return type(e)
    return list(ext.report), canonical_dumps({
        "w": rmatrix_to_json(ext.w), "w_inv": rmatrix_to_json(ext.w_inv),
        "norm_w": ext.norm_w, "norm_w_inv": ext.norm_w_inv,
        "report": ext.report})


def check(basis, images):
    try:
        t = LinMap(Subspace(basis[0].lo, basis[0].hi, tuple(basis)), tuple(images))
    except ParameterError:  # a dependent basis is no instance
        assume(False)
    assert outcome(extend_isomorphism, t) == outcome(dense_oracles.extend_isomorphism, t)


@st.composite
def near_indicators(draw):
    """h disjoint blocks of one or two coordinates, each scaled, mapped to
    h other such blocks."""
    n = draw(st.integers(2, 10))
    h = draw(st.integers(1, max(1, min(3, n // 2))))
    scales = st.fractions(min_value=Fraction(1, 2), max_value=2, max_denominator=4)

    def side():
        coords = draw(st.permutations(range(n)))
        sizes = draw(st.lists(st.integers(1, 2), min_size=h, max_size=h))
        starts = [sum(sizes[:k]) for k in range(h)]
        return [WindowVector.sparse(0, n, {i: s for i in coords[a:a + k]})
                for a, k, s in zip(starts, sizes,
                                   draw(st.lists(scales, min_size=h, max_size=h)))]
    return side(), side()


@st.composite
def tail_windows(draw):
    """Windows of eventually periodic tails with entries in {-1, 0, 1}."""
    lo = draw(st.integers(0, 6))
    hi = lo + draw(st.integers(2, 12))
    h = draw(st.integers(1, 2))
    values = st.sampled_from((Fraction(0), Fraction(1), Fraction(-1)))

    def tail():
        return TailVector(draw(st.lists(values, max_size=3)),
                          draw(st.lists(values, min_size=1, max_size=4))).restrict(lo, hi)
    return [tail() for _ in range(h)], [tail() for _ in range(h)]


@st.composite
def dense_maps(draw):
    n = draw(st.integers(1, 6))
    h = draw(st.integers(1, 2 if n >= 4 else 1))
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=2)

    def vec():
        return WindowVector(0, n, tuple(draw(st.lists(entries, min_size=n, max_size=n))))
    return [vec() for _ in range(h)], [vec() for _ in range(h)]


@settings(max_examples=40, deadline=None)
@given(near_indicators())
def test_near_indicator_extensions(instance):
    check(*instance)


@settings(max_examples=40, deadline=None)
@given(tail_windows())
def test_tail_window_extensions(instance):
    check(*instance)


@settings(max_examples=40, deadline=None)
@given(dense_maps())
@example(DENSE)
def test_dense_extensions(instance):
    check(*instance)


def test_complement_search_runs_only_off_coordinate_complements(monkeypatch):
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    counted(forcing, "extend_isomorphism")
    counted(geometry, "complement_iso")
    counted(geometry, "kernel_of_functionals")
    run_generic(_forge_families(), config=RunConfig(
        rho=Fraction(4), c2=Fraction(64), horizon=512))
    assert calls == {"extend_isomorphism": 9}
    calls.clear()
    basis, images = DENSE
    extend_isomorphism(LinMap(Subspace(0, 4, basis), images), config=CONFIG)
    assert calls == {"complement_iso": 1, "kernel_of_functionals": 2}
