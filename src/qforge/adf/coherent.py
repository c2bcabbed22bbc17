"""Coherent systems of injections indexed by ordinals below omega squared.

Stage alpha is an injection s_alpha from the positions below omega * alpha
(position omega * xi + j encodes the j-th point of the xi-th fiber) onto
the points of the range set W_alpha of the underlying ordinal-indexed
family that some fiber holds, those of valuation at most MAX_VALUATION.
Successor stages append the enumeration of a fresh fiber and change
nothing below, so coherence there is exact.  Limit stages are the union
of a lazy chain whose step n appends one fiber to step n-1 and moves no
value.  Stages are checked, never repaired: each step proves that its
fiber lies in the limit range set and misses the previous range, and
that the next range point is covered, and a family that fails a check
is rejected.  So every stage sends omega * xi + j to the j-th point of
fiber xi, once the chain of omega * (xi.c1 + 1) is checked through the
step adding xi, and agrees with every earlier stage; all range sets stay
in the certified-set algebra.
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

    t_n is the smaller stage s_{xi_n}: step n adds the fiber xi_{n-1} to
    the domain of t_{n-1}.  Step n checks that the fiber lies in W_lambda
    and misses the range of t_{n-1}, and that the first n elements of
    W_lambda lie in the range of t_n.  The union is an injection onto the
    points of W_lambda that some fiber holds: those whose quotient has
    dyadic valuation at most MAX_VALUATION.  A failed check raises;
    nothing is repaired.
    """

    def __init__(self, coherent: "CoherentFamily", lam: OrdinalIdx):
        if not lam.is_limit() or lam.c2 != 0 or lam.c1 < 1:
            raise ParameterError("%s is not a limit stage index" % lam)
        self.coherent = coherent
        self.lam = lam
        self.w = coherent.family.w_set(lam)
        self._steps = 0  # the chain is checked through t_{_steps}
        self._ran = coherent.family.w_set(self._xi(0))  # range of that map

    def _xi(self, n: int) -> OrdinalIdx:
        return self.lam.fundamental(n)

    def ensure(self, n: int):
        """Check the chain through step n."""
        while self._steps < n:
            self._step(self._steps + 1)

    def _step(self, n: int):
        xi_prev = self._xi(n - 1)
        fiber = self.coherent.family.fiber_set(xi_prev)
        if not fiber.diff(self.w).is_empty():
            raise HypothesisViolationError(
                2, "fiber %s leaves the limit range set" % xi_prev)
        if not fiber.intersect(self._ran).is_empty():
            raise HypothesisViolationError(
                6, "previous chain map meets the new fiber")
        ran = self._ran.union(fiber)
        # the first n - 1 points lie in the range of t_{n-1}, which ran contains
        if self.w.nth(n - 1) not in ran:
            raise ParameterError("coverage certificate failed at step %d" % n)
        self._steps, self._ran = n, ran


@dataclass(frozen=True)
class Stage:
    """The injection at one stage, a view into the coherent system."""
    coherent: "CoherentFamily"
    alpha: OrdinalIdx

    def value(self, beta: OrdinalIdx) -> int:
        xi, j = beta.fiber_and_offset()
        if not xi < self.alpha:
            raise ParameterError("position %s outside stage %s" % (beta, self.alpha))
        return self.coherent.image_of_fiber(self.alpha, xi).nth(j)

    def preimage(self, v: int):
        xi = self.coherent.family.index_of(v)
        if xi is not None and xi < self.alpha:
            fiber = self.coherent.image_of_fiber(self.alpha, xi)
            return OrdinalIdx.from_fiber(xi, fiber.rank(v))
        lam = _limit_part(self.alpha)
        if xi is None and lam is not None and v in self.coherent.core(lam).w:
            # past MAX_VALUATION no fiber holds v, though W_lambda may
            raise ParameterError("valuation index beyond cap")
        return None


class CoherentFamily:
    """Memoized system of coherent injections over an ordinal family."""

    def __init__(self, family: OrdinalProgressionFamily, cap: OrdinalIdx):
        if cap.c2 != 0 or cap > OrdinalIdx(0, family.blocks, 0):
            raise ParameterError("cap must be at most omega * blocks")
        self.family = family
        self.cap = cap
        self._cores = {}
        self._chain_sets = {}

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
        """Exact positions below omega * gamma where the two stages differ.

        No chain step moves a value, so the list is empty once stage
        gamma, if below alpha's limit part, is checked as a chain map.
        """
        if not gamma <= alpha or alpha > self.cap:
            raise ParameterError("need gamma <= alpha <= cap")
        lam = _limit_part(alpha)
        if lam is not None and gamma < lam:
            self.core(OrdinalIdx(0, gamma.c1 + 1, 0)).ensure(gamma.c0)
        return []

    def image_of_fiber(self, alpha: OrdinalIdx, xi: OrdinalIdx) -> CertSet:
        """Exact image of the xi-th fiber under stage alpha: the fiber."""
        if not xi < alpha:
            raise ParameterError("fiber %s outside stage %s" % (xi, alpha))
        lam = _limit_part(alpha)
        if lam is not None and xi < lam:
            self.core(lam)  # a limit past the family window has no chain
            self.core(OrdinalIdx(0, xi.c1 + 1, 0)).ensure(xi.c0 + 1)
        return self.family.fiber_set(xi)

    def derived_set(self, xi: OrdinalIdx) -> CertSet:
        """Image of the xi-th fiber under the first stage containing it."""
        return self.image_of_fiber(xi.successor(), xi)


def boolean_image(coherent: CoherentFamily, indices, complement=False) -> CertSet:
    """The set representing the Boolean image of a union of index fibers:
    the stage image of the corresponding fibers, or its complement when
    the index set is given by its complement."""
    indices = sorted(set(indices))
    out = CertSet.union_all([coherent.image_of_fiber(indices[-1].successor(), xi)
                             for xi in indices])
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
    """The alpha-th member of the increasing chain the stages embed into.

    Memoized on the system; the member at a successor alpha whose
    predecessor's is known adds the fiber alpha - 1 to that one."""
    memo = coherent._chain_sets
    if alpha not in memo:
        below = memo.get(alpha.predecessor()) if alpha.is_successor() else None
        memo[alpha] = (coherent.family.separator(alpha) if below is None else
                       below.union(coherent.family.member(alpha.predecessor())))
    return memo[alpha]
