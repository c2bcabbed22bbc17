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

The oracle's complement search keeps the stage the library dropped:
equal kernels give the identity at once.  A dense basis mapped onto
itself, in its own or another order, has equal kernels whenever both
projections are the same, and the library must reach the same bytes
through its stages 1 and 2.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dense_oracles
from qforge import forcing, geometry, simplex
from qforge.config import RunConfig
from qforge.errors import ParameterError, QForgeError
from qforge.forcing import GenericRun, run_generic
from qforge.geometry import LinMap, Subspace, extend_isomorphism
from qforge.jsonio import canonical_dumps, rmatrix_to_json
from qforge.linalg import RMatrix, WindowVector
from qforge.tails import TailVector
from test_acceptance import _forge_families

CONFIG = RunConfig(rho=Fraction(4), c2=Fraction(64))


def wv(*coords):
    return WindowVector(0, len(coords), coords)


# ker Psi_2 is not spanned by unit vectors here: Psi_2, of the images,
# has 3 nonzero columns for h = 2 (Psi_1 has 2)
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
    return t


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


@st.composite
def permuted_bases(draw):
    """A dense basis and the same vectors in a drawn order: t maps y1 onto
    itself, so y2 = y1 as spans."""
    basis = draw(dense_maps())[0]
    return basis, [basis[k] for k in draw(st.permutations(range(len(basis))))]


def equal_kernels_off_coordinates(t):
    """Do ker Psi_1 and ker Psi_2 have the same basis, with Psi_1 on more
    than h columns, so that the complement search runs on equal kernels?"""
    y1 = t.domain
    try:
        psi1 = geometry._projection_norm(y1)[1]
        psi2 = geometry._projection_norm(Subspace(y1.lo, y1.hi, t.images))[1]
    except QForgeError:
        return False
    return (len(geometry._nonzero_columns(psi1)) > y1.dim
            and geometry.kernel_of_functionals(psi1).basis
            == geometry.kernel_of_functionals(psi2).basis)


def test_equal_kernel_extensions():
    seen = []

    # DENSE's second basis has functionals on 3 columns for h = 2, so the
    # complement search runs on its equal kernels in either order; its
    # first has functionals on 2 columns and would not count here
    @settings(max_examples=40, deadline=None)
    @given(permuted_bases())
    @example((DENSE[1], DENSE[1]))
    @example((DENSE[1], DENSE[1][::-1]))
    def run(instance):
        t = check(*instance)
        if equal_kernels_off_coordinates(t):
            seen.append(instance)
    run()
    assert len(seen) >= 2  # at least the pinned instances gave the oracle's bytes


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


def count_calls(monkeypatch, counts, inside=()):
    """Count the calls of RMatrix.block, RMatrix.matmul and
    RMatrix.from_columns, keyed (name, whether inside is nonempty), and
    of TailVector.restrict, keyed ("restrict", ...)."""
    def counted(cls, name, wrap=lambda f: f):
        real = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counts[name, bool(inside)] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrap(wrapper))
    counted(RMatrix, "block")
    counted(RMatrix, "matmul")
    counted(RMatrix, "from_columns", staticmethod)
    counted(TailVector, "restrict")


def test_forge_builds_each_held_fact_once(monkeypatch):
    # each extension of the criterion-7 forge builds its two basis matrices
    # once; loading the run file copies no block out of its matrices, and
    # its replay decides every block fact on the integer rows, with no
    # block copied, no product formed and no tail window restricted
    counts, inside = Counter(), []
    extend = forcing.extend_isomorphism

    def counted_extend(*args, **kwargs):
        counts["extend_isomorphism"] += 1
        inside.append(True)
        try:
            return extend(*args, **kwargs)
        finally:
            inside.pop()
    monkeypatch.setattr(forcing, "extend_isomorphism", counted_extend)
    count_calls(monkeypatch, counts, inside)
    families = _forge_families()
    run = run_generic(families, config=RunConfig(
        rho=Fraction(4), c2=Fraction(64), horizon=512))
    assert counts["extend_isomorphism"] == 9
    assert counts["from_columns", True] == 2 * 9
    obj = run.to_json_obj()
    counts.clear()
    GenericRun.from_json_obj(obj)
    assert counts["block", False] == 0
    counts.clear()
    assert forcing.verify_run(run, families)["failures"] == []
    assert +counts == Counter()


def test_forced_lps_run_no_simplex(monkeypatch):
    # past their finite intersections the windows are disjoint multiples
    # of indicators, so the Hahn-Banach LPs of a criterion-8 amalgamation
    # all have diagonal layouts and run no simplex; of the criterion-7
    # forge's 88, exactly 2 do not
    counts = Counter()
    solve, simplex_min = geometry.lp_min_l1, simplex.simplex_min

    def counted_solve(*args):
        counts["lp_min_l1"] += 1
        return solve(*args)

    def counted_simplex(*args):
        counts["simplex_min"] += 1
        return simplex_min(*args)
    monkeypatch.setattr(geometry, "lp_min_l1", counted_solve)
    monkeypatch.setattr(simplex, "simplex_min", counted_simplex)
    families = _forge_families()
    config = RunConfig(horizon=512)
    stem = forcing.dense_hit_D(forcing.Condition.trivial(), 16, families, config)
    p = forcing.Condition(stem.n, stem.m, (0, 7), stem.cuts, stem.inv)
    q = forcing.Condition(stem.n, stem.m, (3,), stem.cuts, stem.inv)
    counts.clear()
    forcing.amalgamate(p, q, stem.n, families, config)
    assert counts == Counter(lp_min_l1=6)
    counts.clear()
    run_generic(families, config=RunConfig(rho=Fraction(4), c2=Fraction(64), horizon=512))
    assert counts == Counter(lp_min_l1=88, simplex_min=2)


def test_amalgamation_checks_copy_no_block(monkeypatch):
    # validate_condition and cond_leq on an amalgamation of the criterion-8
    # batch read its blocks and the tail windows as integer rows
    families = _forge_families()
    config = RunConfig(horizon=512)
    stem = forcing.dense_hit_D(forcing.Condition.trivial(), 16, families, config)
    p = forcing.Condition(stem.n, stem.m, (0, 7), stem.cuts, stem.inv)
    q = forcing.Condition(stem.n, stem.m, (3,), stem.cuts, stem.inv)
    r = forcing.amalgamate(p, q, stem.n, families, config)
    assert r.n > stem.n and r.a == (0, 3, 7)
    counts = Counter()
    count_calls(monkeypatch, counts)
    assert forcing.validate_condition(r, families, config) == []
    assert +counts == Counter()
    assert forcing.cond_leq(r, p, families) == (True, [])
    assert +counts == Counter()
