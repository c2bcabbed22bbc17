"""End-to-end acceptance gate: nine exact, budgeted criteria covering the
norm oracles, the extension pipeline, the certified combinatorics, the
coherent system, and the full forge/verify loop."""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from dense_oracles import dot, dual_norm, from_dense, matrix_apply
from qforge.adf.certset import CertSet
from qforge.adf.coherent import (
    CoherentFamily,
    boolean_image,
    separator_from_embedding,
)
from qforge.adf.families import OrdinalProgressionFamily
from qforge.adf.injections import NInjection, nice_ext, verify_nice_ext
from qforge.adf.ordinals import OrdinalIdx
from qforge.config import RunConfig
from qforge.errors import HypothesisViolationError
from qforge.forcing import (
    Condition,
    amalgamate,
    cond_leq,
    dense_hit_D,
    paired_from_certsets,
    run_generic,
    validate_condition,
    verify_run,
)
from qforge.adf.families import FamilyGenerator, make_family
from qforge.geometry import (
    LinMap,
    Subspace,
    extend_isomorphism,
    hahn_banach_extend,
)
from qforge.jsonio import canonical_dumps, rmatrix_to_json
from qforge.linalg import RMatrix, WindowVector, op_norm_inf, rank
from qforge.tails import (
    TailVector,
    check_pi_injective,
    lifting_index,
    quotient_norm,
    restriction_index,
)

SEED = 20260823


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.limit, (
            "budget exceeded: %.2fs > %ds" % (elapsed, self.limit))


def rand_fraction(rng, lo=-9, hi=9, den=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def test_criterion_1_operator_norm_oracle():
    budget = Budget(5)
    rng = random.Random(SEED)
    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rand_fraction(rng) for _ in range(nc)] for _ in range(nr)]
        m = from_dense(dense)
        brute = max(
            max(abs(sum(row[j] * s[j] for j in range(nc))) for row in dense)
            for s in product((1, -1), repeat=nc))
        assert op_norm_inf(m) == brute
    budget.check()


def _random_subspace(rng, n, dim):
    while True:
        rows = [[rand_fraction(rng) for _ in range(n)] for _ in range(dim)]
        if rank(rows) == dim:
            basis = tuple(WindowVector(0, n, tuple(r)) for r in rows)
            return Subspace(0, n, basis)


def test_criterion_2_hahn_banach_vs_vertex_dual():
    budget = Budget(30)
    rng = random.Random(SEED + 1)
    for _ in range(100):
        n = rng.randint(1, 5)
        dim = rng.randint(1, min(3, n))
        y = _random_subspace(rng, n, dim)
        phi = [rand_fraction(rng) for _ in range(dim)]
        u, value = hahn_banach_extend(y, phi)
        assert u.l1_norm() == value
        for v, p in zip(y.basis, phi):
            assert dot(u, v) == p
        assert dual_norm(y, phi) == value
    budget.check()


def _extension_instance(rng):
    """Near-indicator instance: h disjointly supported basis vectors on a
    window of size n <= 12, each mapped to a rescaled disjoint indicator."""
    n = rng.randint(6, 12)
    h = rng.randint(1, 3 if n >= 9 else 2)  # pipeline needs h^2 <= n
    coords = list(range(n))
    rng.shuffle(coords)
    dom_blocks = [sorted(coords[2 * k: 2 * k + 2]) for k in range(h)]
    rng.shuffle(coords)
    img_blocks = [sorted(coords[2 * k: 2 * k + 2]) for k in range(h)]
    def vec(block, scale):
        return WindowVector(0, n, tuple(
            scale if i in block else Fraction(0) for i in range(n)))
    scales = [1 + Fraction(rng.randint(-2, 2), 8) for _ in range(2 * h)]
    basis = tuple(vec(b, s) for b, s in zip(dom_blocks, scales[:h]))
    images = tuple(vec(b, s) for b, s in zip(img_blocks, scales[h:]))
    return LinMap(Subspace(0, n, basis), images)


def build_extension_suite(seed):
    """Criterion-3 pipeline; returns (failure list, canonical JSON)."""
    rng = random.Random(seed)
    cfg = RunConfig(rho=Fraction(4), c2=Fraction(64))
    failures, records = [], []
    for k in range(50):
        t = _extension_instance(rng)
        ext = extend_isomorphism(t, config=cfg)
        n = t.domain.hi
        for v, w in zip(t.domain.basis, t.images):
            if matrix_apply(ext.w, v).coords != w.coords:
                failures.append("instance %d: disagreement on the basis" % k)
        if not ext.w.matmul(ext.w_inv).equals(RMatrix.identity(0, n)):
            failures.append("instance %d: inverse product" % k)
        if op_norm_inf(ext.w) > 64 or op_norm_inf(ext.w_inv) > 64:
            failures.append("instance %d: norm budget" % k)
        records.append({"w": rmatrix_to_json(ext.w),
                        "w_inv": rmatrix_to_json(ext.w_inv),
                        "norm_w": str(ext.norm_w),
                        "norm_w_inv": str(ext.norm_w_inv)})
    return failures, canonical_dumps({"seed": seed, "instances": records})


def test_criterion_3_extension_pipeline():
    budget = Budget(60)
    failures, _ = build_extension_suite(SEED + 2)
    assert failures == []
    budget.check()


def _random_tail_span(rng):
    while True:
        dim = rng.randint(1, 3)
        fs = []
        for _ in range(dim):
            prefix = tuple(rand_fraction(rng, -3, 3, 4)
                           for _ in range(rng.randint(0, 4)))
            period = tuple(rand_fraction(rng, -3, 3, 4)
                           for _ in range(rng.randint(1, 3)))
            fs.append(TailVector(prefix, period))
        try:
            check_pi_injective(fs)
            restriction_index(fs)
            return fs
        except Exception:
            continue


def test_criterion_4_lifting_restriction_windows():
    budget = Budget(30)
    rng = random.Random(SEED + 3)
    for _ in range(50):
        fs = _random_tail_span(rng)
        eps = Fraction(rng.choice((0, 1)), 4)
        lift = lifting_index(fs, eps)
        restr = restriction_index(fs, eps)
        for _ in range(10):  # 10 x 50 spans = 500 exact samples
            coeffs = [rand_fraction(rng, -5, 5, 5) for _ in fs]
            y = TailVector((), (Fraction(0),))
            for c, f in zip(coeffs, fs):
                y = y.add(f.scale(c))
            assert (1 - eps) * y.tail_sup(lift.n) <= quotient_norm(y)
            assert (1 - eps) * y.tail_sup(0) <= y.restrict(0, restr.n).sup_norm()
    budget.check()


def _nice_ext_instance(rng):
    m = rng.choice((2, 3, 4))
    r = rng.randint(0, m - 1)
    b = CertSet.ap(r, m)
    a = CertSet.ap(r, 2 * m)          # b minus a is an infinite progression
    k = rng.choice((2, 3, 4))
    t = rng.randint(0, 5)
    g = NInjection.affine(b, k, t)    # range k*b + t, co-infinite in c
    c = CertSet.ap(0, 1)
    f = g.restrict(a)
    big_f = sorted(rng.sample(range(100), rng.randint(0, 3)))
    return a, b, c, f, g, big_f


def test_criterion_5_nice_ext_postconditions_and_mutants():
    budget = Budget(20)
    rng = random.Random(SEED + 4)
    for _ in range(200):
        a, b, c, f, g, big_f = _nice_ext_instance(rng)
        h = nice_ext(a, b, c, f, g, big_f)
        assert verify_nice_ext(h, a, b, c, f, g, big_f) == []

    nats = CertSet.ap(0, 1)
    evens = CertSet.ap(0, 2)
    odds = CertSet.ap(1, 2)
    doubling = NInjection.affine(nats, 2, 0)
    f0 = doubling.restrict(evens)
    mutants = [
        (1, (CertSet.ap(0, 3), evens, nats,
             NInjection.affine(CertSet.ap(0, 3), 2, 0),
             NInjection.affine(evens, 2, 0), [])),
        (2, (evens, nats, nats.diff(CertSet.finite([0])), f0,
             NInjection.affine(nats, 2, 0, patch={0: 1}), [])),
        (3, (evens, nats, nats, f0,
             doubling.restrict(nats.diff(CertSet.finite([9]))), [])),
        (4, (evens, nats, evens, NInjection.affine(evens, 2, 0),
             NInjection(nats, ((evens, (2, 0)), (odds, (1, 0)))), [])),
        (5, (evens, nats, nats, NInjection.identity(evens),
             NInjection.identity(nats), [])),
        (6, (evens, nats, nats, NInjection.affine(evens, 4, 0), doubling, [])),
        (7, (evens, nats, evens,
             NInjection.affine(nats, 4, 0).restrict(evens),
             NInjection.affine(nats, 4, 0), [5])),
    ]
    for number, args in mutants:
        with pytest.raises(HypothesisViolationError) as e:
            nice_ext(*args)
        assert e.value.number == number
    budget.check()


def test_criterion_6_coherent_family_and_boolean_monomorphism():
    budget = Budget(60)
    family = OrdinalProgressionFamily(cells=8, blocks=2)
    cap = OrdinalIdx(0, 2, 0)  # omega * 2
    system = CoherentFamily(family, cap)

    # coherence certificates on sampled stage pairs, including both limits
    stages = [OrdinalIdx(0, 0, r) for r in range(4)] + \
             [OrdinalIdx(0, 1, 0), OrdinalIdx(0, 1, 2), cap]
    for g_idx, a_idx in combinations(stages, 2):
        exc = system.coherence_exceptions(g_idx, a_idx)
        sg, sa = system.stage(g_idx), system.stage(a_idx)
        for pos in exc:
            assert sg.value(pos) != sa.value(pos)
        for j in range(20):
            fib = OrdinalIdx(0, 0, 0)
            if not fib < g_idx:
                break
            pos = OrdinalIdx.from_fiber(fib, j)
            if pos not in exc:
                assert sg.value(pos) == sa.value(pos)

    # derived sets are pairwise almost disjoint with exact certificates
    fibers = [OrdinalIdx(0, q, r) for q in range(2) for r in range(4)]
    derived = [system.derived_set(xi) for xi in fibers]
    for d1, d2 in combinations(derived, 2):
        assert isinstance(d1.almost_disjoint(d2), list)

    # homomorphism laws for every pair of subsets of a 6-element index set
    idx6 = [OrdinalIdx(0, 0, r) for r in range(6)]
    images = {}
    for mask in range(64):
        sub = frozenset(i for i in range(6) if mask >> i & 1)
        images[sub] = boolean_image(system, [idx6[i] for i in sub])
    subsets = sorted(images, key=sorted)
    for x in subsets:
        for y in subsets:
            hx, hy = images[x], images[y]
            assert images[x | y].eq_star(hx.union(hy))[0]
            assert images[x & y].eq_star(hx.intersect(hy))[0]
            assert images[x - y].eq_star(hx.diff(hy))[0]
            if not x <= y:  # monomorphism: strict parts stay infinite
                assert hx.diff(hy).is_infinite()

    # separator certificates in both directions
    sep = separator_from_embedding(system, idx6[:3], outside_sample=idx6[3:])
    assert set(sep.inside_exceptions) == set(idx6[:3])
    assert set(sep.outside_exceptions) == set(idx6[3:])
    for exc in sep.outside_exceptions.values():
        assert isinstance(exc, tuple)
    budget.check()


def _forge_families():
    fam = make_family(FamilyGenerator("progression", count=8))
    gam = make_family(FamilyGenerator("branch", count=8, depth=3))
    return paired_from_certsets(gam.sets, fam.sets)


def forge_and_verify():
    """Criterion-7 pipeline; returns (report, canonical run JSON)."""
    families = _forge_families()
    config = RunConfig(rho=Fraction(4), c2=Fraction(64), horizon=512)
    run = run_generic(families, config=config)
    report = verify_run(run, families, config)
    obj = run.to_json_obj()
    obj["families"] = families.to_json_obj()
    obj["report"] = report
    return report, canonical_dumps(obj)


def test_criterion_7_forge_end_to_end():
    budget = Budget(120)
    report, _ = forge_and_verify()
    assert report["failures"] == []
    assert report["stages"][-1] >= 512
    for info in report["details"]["blocks"]:
        assert Fraction(info["norm"]) <= 64
        assert Fraction(info["inv_norm"]) <= 64
    for info in report["details"]["indices"].values():
        assert info["checked_window"][1] >= 512
    budget.check()


def test_criterion_8_sigma_linked_amalgamation():
    budget = Budget(60)
    rng = random.Random(SEED + 5)
    families = _forge_families()
    config = RunConfig(horizon=512)
    stem = dense_hit_D(Condition.trivial(), 16, families, config)
    for _ in range(50):
        aa = tuple(rng.sample(range(8), rng.randint(1, 3)))
        bb = tuple(rng.sample(range(8), rng.randint(1, 3)))
        p = Condition(stem.n, stem.m, aa, stem.cuts, stem.inv)
        q = Condition(stem.n, stem.m, bb, stem.cuts, stem.inv)
        r = amalgamate(p, q, stem.n, families, config)
        assert validate_condition(r, families, config) == []
        for base in (p, q):
            ok, wit = cond_leq(r, base, families)
            assert ok, wit
    budget.check()


def test_criterion_9_byte_identical_reruns():
    fail_a, json3_a = build_extension_suite(SEED + 2)
    fail_b, json3_b = build_extension_suite(SEED + 2)
    assert fail_a == fail_b == []
    assert json3_a == json3_b

    report_a, json7_a = forge_and_verify()
    report_b, json7_b = forge_and_verify()
    assert report_a["failures"] == report_b["failures"] == []
    assert json7_a == json7_b
