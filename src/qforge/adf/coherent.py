"""Coherent systems of injections indexed by ordinals below omega squared.

Stage alpha is an injection s_alpha from the positions below omega * alpha
(position omega * xi + j encodes the j-th point of the xi-th fiber) onto
the exact range set W_alpha of the underlying ordinal-indexed family.
Successor stages append the enumeration of a fresh fiber and change
nothing below, so coherence there is exact.  Limit stages are built from
a lazy chain of finite repairs: step n extends step n-1 across one fiber,
redirecting only the finitely many positions whose value would collide
or that are needed to cover the next range point.  Every stage therefore
differs from every earlier stage on an explicit finite set of positions,
and all range sets stay in the certified-set algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import HypothesisViolationError, ParameterError
from .certset import CertSet
from .families import OrdinalProgressionFamily
from .ordinals import OrdinalIdx


def _limit_part(alpha: OrdinalIdx):
    """Largest limit ordinal at most alpha, or None below omega."""
    if alpha.c2 != 0:
        raise ParameterError("stage indices must lie below omega squared")
    if alpha.c1 == 0:
        return None
    return OrdinalIdx(0, alpha.c1, 0)


class LimitCore:
    """Lazy chain t_0 <= t_1 <= ... converging to the limit stage.

    t_n agrees with the smaller stage s_{xi_n} except on the finite
    override dictionary ovr_n, and its exact range is tracked as a
    certified set.  Step n guarantees the first n elements of W_lambda
    are covered, so the union is onto W_lambda.
    """

    def __init__(self, coherent: "CoherentFamily", lam: OrdinalIdx):
        if not lam.is_limit() or lam.c2 != 0 or lam.c1 < 1:
            raise ParameterError("%s is not a limit stage index" % lam)
        self.coherent = coherent
        self.lam = lam
        self.w = coherent.family.w_set(lam)
        self._ovr = [dict()]  # ovr_n: position -> value, relative to s_{xi_n}
        self._ran = [coherent.family.w_set(self._xi(0))]

    def _xi(self, n: int) -> OrdinalIdx:
        return self.lam.fundamental(n)

    def _entry_step(self, xi: OrdinalIdx) -> int:
        """Least n with xi < xi_n (the first chain map defined on fiber xi)."""
        if xi.c2 != 0 or xi >= self.lam:
            raise ParameterError("fiber %s outside the limit window" % xi)
        if xi.c1 < self.lam.c1 - 1:
            return 0
        return xi.c0 + 1

    def _ensure(self, n: int):
        while len(self._ovr) <= n:
            self._step(len(self._ovr))

    def _step(self, n: int):
        fam = self.coherent.family
        xi_prev, xi = self._xi(n - 1), self._xi(n)
        g = self.coherent.stage(xi)
        fiber = fam.fiber_set(xi_prev)
        if not fiber.diff(self.w).is_empty():
            raise HypothesisViolationError(
                2, "fiber %s leaves the limit range set" % xi_prev)
        prev_ovr, prev_ran = self._ovr[n - 1], self._ran[n - 1]

        # collisions: fiber values already produced by the previous map;
        # the fiber is exactly disjoint from W_{xi_prev}, so only the
        # finitely many redirected values can collide
        collide = fiber.intersect(prev_ran)
        if collide.is_infinite():
            raise HypothesisViolationError(
                6, "previous chain map meets the new fiber infinitely")
        d3 = set()
        for v in collide.finite_elements():
            d3.add(OrdinalIdx.from_fiber(xi_prev, fiber.rank(v)))

        # coverage: the first n points of W_lambda must land in the range
        targets = [self.w.nth(k) for k in range(n)]

        def missing_targets():
            out = []
            for v in targets:
                if v in prev_ran:
                    continue
                if v in fiber and OrdinalIdx.from_fiber(
                        xi_prev, fiber.rank(v)) not in d3:
                    continue
                out.append(v)
            return out

        missing = missing_targets()
        j = 0
        while len(d3) < len(missing):
            d3.add(OrdinalIdx.from_fiber(xi_prev, j))
            j += 1
            missing = missing_targets()
        d3 = sorted(d3)

        # fresh values live outside the next stage range and all repairs
        pool = self.w.diff(fam.w_set(xi))
        avoid = set(targets) | set(prev_ovr.values())
        assignments = {}
        k = 0
        for idx, pos in enumerate(d3):
            if idx < len(missing):
                assignments[pos] = missing[idx]
            else:
                while pool.nth(k) in avoid:
                    k += 1
                assignments[pos] = pool.nth(k)
                avoid.add(pool.nth(k))
        ovr = {pos: v for pos, v in prev_ovr.items()
               if v != g.value(pos)}
        ovr.update(assignments)

        displaced = [g.value(pos) for pos in ovr]
        ran = fam.w_set(xi).diff(CertSet.finite(displaced)).union(
            CertSet.finite(ovr.values()))
        for v in targets:
            if v not in ran:
                raise ParameterError("coverage certificate failed at step %d" % n)
        self._ovr.append(ovr)
        self._ran.append(ran)

    # -- chain access -----------------------------------------------------
    def overrides_for(self, n: int) -> dict:
        self._ensure(n)
        return self._ovr[n]

    def value(self, beta: OrdinalIdx) -> int:
        xi, _ = beta.fiber_and_offset()
        n = self._entry_step(xi)
        ovr = self.overrides_for(n)
        if beta in ovr:
            return ovr[beta]
        return self.coherent.stage(self._xi(n)).value(beta)

    def preimage(self, v: int):
        if v not in self.w:
            return None
        n = self.w.rank(v) + 1
        ovr = self.overrides_for(n)
        for pos, val in ovr.items():
            if val == v:
                return pos
        pos = self.coherent.stage(self._xi(n)).preimage(v)
        if pos is None or pos in ovr:
            return None
        return pos


@dataclass(frozen=True)
class Stage:
    """The injection at one stage, a view into the coherent system."""
    coherent: "CoherentFamily"
    alpha: OrdinalIdx

    def value(self, beta: OrdinalIdx) -> int:
        xi, j = beta.fiber_and_offset()
        if not xi < self.alpha:
            raise ParameterError("position %s outside stage %s" % (beta, self.alpha))
        lam = _limit_part(self.alpha)
        if lam is not None and xi < lam:
            return self.coherent.core(lam).value(beta)
        return self.coherent.family.fiber_set(xi).nth(j)

    def preimage(self, v: int):
        fam = self.coherent.family
        xi = fam.index_of(v)
        lam = _limit_part(self.alpha)
        if xi is not None and xi < self.alpha and (lam is None or xi >= lam):
            rank = fam.fiber_set(xi).rank(v)
            if rank is not None:
                return OrdinalIdx.from_fiber(xi, rank)
        if lam is not None:
            return self.coherent.core(lam).preimage(v)
        return None

    def range_set(self) -> CertSet:
        """Exact range: the family's W-set at alpha.  Below a limit this
        rests on the per-step coverage certificates of the core; every
        chain repair keeps the range inside W and the coverage checks
        pull each W point into the range."""
        return self.coherent.family.w_set(self.alpha)


class CoherentFamily:
    """Memoized system of coherent injections over an ordinal family."""

    def __init__(self, family: OrdinalProgressionFamily, cap: OrdinalIdx):
        if cap.c2 != 0 or cap > OrdinalIdx(0, family.blocks, 0):
            raise ParameterError("cap must be at most omega * blocks")
        self.family = family
        self.cap = cap
        self._cores = {}

    def stage(self, alpha: OrdinalIdx) -> Stage:
        if alpha > self.cap:
            raise ParameterError("stage %s beyond the cap" % alpha)
        return Stage(self, alpha)

    def core(self, lam: OrdinalIdx) -> LimitCore:
        if lam not in self._cores:
            self._cores[lam] = LimitCore(self, lam)
        return self._cores[lam]

    # -- certificates -----------------------------------------------------
    def coherence_exceptions(self, gamma: OrdinalIdx, alpha: OrdinalIdx):
        """Exact positions below omega * gamma where the two stages differ."""
        if not gamma <= alpha or alpha > self.cap:
            raise ParameterError("need gamma <= alpha <= cap")
        lam = _limit_part(alpha)
        if lam is None or gamma >= lam or gamma == alpha:
            return []
        core = self.core(lam)
        n = 0 if gamma.c1 < lam.c1 - 1 else gamma.c0
        xi_n = lam.fundamental(n)
        candidates = set(self.coherence_exceptions(gamma, xi_n))
        for pos in core.overrides_for(n):
            fib, _ = pos.fiber_and_offset()
            if fib < gamma:
                candidates.add(pos)
        s_a, s_g = self.stage(alpha), self.stage(gamma)
        return sorted(p for p in candidates if s_a.value(p) != s_g.value(p))

    def image_of_fiber(self, alpha: OrdinalIdx, xi: OrdinalIdx) -> CertSet:
        """Exact image of the xi-th fiber of positions under stage alpha."""
        if not xi < alpha:
            raise ParameterError("fiber %s outside stage %s" % (xi, alpha))
        lam = _limit_part(alpha)
        if lam is None or xi >= lam:
            return self.family.fiber_set(xi)
        core = self.core(lam)
        n = core._entry_step(xi)
        xi_n = lam.fundamental(n)
        img = self.image_of_fiber(xi_n, xi)
        inner = self.stage(xi_n)
        ovr = core.overrides_for(n)
        moved = {pos: v for pos, v in ovr.items()
                 if pos.fiber_and_offset()[0] == xi}
        if moved:
            img = img.diff(CertSet.finite(
                [inner.value(p) for p in moved])).union(
                CertSet.finite(moved.values()))
        return img

    def derived_set(self, xi: OrdinalIdx) -> CertSet:
        """Image of the xi-th fiber under the first stage containing it."""
        return self.image_of_fiber(xi.successor(), xi)


def boolean_image(coherent: CoherentFamily, indices, complement=False) -> CertSet:
    """The set representing the Boolean image of a union of index fibers:
    the stage image of the corresponding fibers, or its complement when
    the index set is given by its complement."""
    indices = sorted(set(indices))
    if not indices and not complement:
        return CertSet.empty()
    alpha = coherent.cap if not indices else max(
        max(indices).successor(), OrdinalIdx.nat(1))
    out = CertSet.empty()
    for xi in indices:
        out = out.union(coherent.image_of_fiber(alpha, xi))
    return out.complement() if complement else out


@dataclass(frozen=True)
class EmbeddingSeparation:
    separator: CertSet
    inside_exceptions: dict   # xi in F -> finite exceptions of A_xi vs V
    outside_exceptions: dict  # sampled xi outside F -> exact meet with V


def separator_from_embedding(coherent: CoherentFamily, f_indices,
                             outside_sample=()) -> EmbeddingSeparation:
    """Separator for a finite index set: the union of the fiber images,
    certified almost-inside for members of F and almost-disjoint for the
    sampled indices outside F."""
    f_indices = sorted(set(f_indices))
    v = boolean_image(coherent, f_indices)
    inside = {}
    for xi in f_indices:
        ok, exc = coherent.family.member(xi).subset_star(v)
        if not ok:
            raise ParameterError("member %s not almost inside" % xi)
        inside[xi] = tuple(exc)
    outside = {}
    for xi in outside_sample:
        if xi in f_indices:
            continue
        outside[xi] = tuple(coherent.family.member(xi).almost_disjoint(v))
    return EmbeddingSeparation(v, inside, outside)


def chain_set(coherent: CoherentFamily, alpha: OrdinalIdx) -> CertSet:
    """The alpha-th member of the increasing chain the stages embed into."""
    return coherent.family.separator(alpha)
