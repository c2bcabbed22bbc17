"""Certified subsets of the naturals.

A CertSet is stored in a normal form (threshold, modulus, residues,
explicit below-threshold part) equivalent to "finite union of arithmetic
progressions plus finite patches".  The form is closed under union,
intersection, difference and complement, and makes membership,
infinitude, =*, and subset-modulo-finite decidable with explicit finite
exception sets as certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from ..errors import NotAlmostDisjointError, ParameterError


def _minimize(threshold, modulus, residues, below):
    # smallest modulus: a divisor m of modulus with m-periodic residues
    for m in sorted(d for d in range(1, modulus + 1) if modulus % d == 0):
        res_m = {r % m for r in residues}
        if all((r % m in res_m) == (r in residues) for r in range(modulus)):
            modulus, residues = m, frozenset(res_m)
            break
    # smallest threshold: pull it down while the rule already agrees
    t = threshold
    while t > 0 and ((t - 1) in below) == ((t - 1) % modulus in residues):
        t -= 1
    below = frozenset(x for x in below if x < t)
    if any(x < 0 for x in below):
        raise ParameterError("negative elements are not allowed")
    return t, modulus, residues, below


@dataclass(frozen=True)
class CertSet:
    """Canonical form: n >= threshold belongs iff n % modulus in residues;
    n < threshold belongs iff n in below."""

    threshold: int
    modulus: int
    residues: frozenset
    below: frozenset

    def __post_init__(self):
        if self.modulus < 1 or self.threshold < 0:
            raise ParameterError("bad normal form parameters")
        t, m, r, b = _minimize(self.threshold, self.modulus,
                               frozenset(x % self.modulus for x in self.residues),
                               frozenset(self.below))
        object.__setattr__(self, "threshold", t)
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "residues", r)
        object.__setattr__(self, "below", b)

    # -- constructors --------------------------------------------------
    @staticmethod
    def empty() -> "CertSet":
        return CertSet(0, 1, frozenset(), frozenset())

    @staticmethod
    def naturals() -> "CertSet":
        return CertSet(0, 1, frozenset({0}), frozenset())

    @staticmethod
    def finite(elements) -> "CertSet":
        elements = frozenset(int(x) for x in elements)
        t = max(elements) + 1 if elements else 0
        return CertSet(t, 1, frozenset(), elements)

    @staticmethod
    def ap(a: int, d: int) -> "CertSet":
        """The progression {a + d k : k >= 0}."""
        if d < 1 or a < 0:
            raise ParameterError("progression needs a >= 0, d >= 1")
        return CertSet(a, d, frozenset({a % d}), frozenset())

    @staticmethod
    def from_progressions(progressions, add=(), remove=()) -> "CertSet":
        s = CertSet.empty()
        for a, d in progressions:
            s = s.union(CertSet.ap(a, d))
        return s.union(CertSet.finite(add)).diff(CertSet.finite(remove))

    # -- queries -------------------------------------------------------
    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n < self.threshold:
            return n in self.below
        return n % self.modulus in self.residues

    def is_infinite(self) -> bool:
        return bool(self.residues)

    def is_empty(self) -> bool:
        return not self.residues and not self.below

    def elements_below(self, n: int) -> list:
        return [x for x in range(n) if x in self]

    def finite_elements(self) -> list:
        """All elements, requiring the set to be finite."""
        if self.is_infinite():
            raise ParameterError("set is infinite")
        return sorted(self.below)

    def nth(self, j: int) -> int:
        """j-th element in increasing order (0-based)."""
        if j < 0:
            raise ParameterError("negative rank")
        small = sorted(self.below)
        if j < len(small):
            return small[j]
        if not self.residues:
            raise ParameterError("rank beyond a finite set")
        j -= len(small)
        # count elements in [threshold, threshold + k*modulus) in blocks
        per_block = len(self.residues)
        block, offset = divmod(j, per_block)
        res = sorted((self.threshold + ((r - self.threshold) % self.modulus))
                     for r in self.residues)
        return res[offset] + block * self.modulus

    def rank(self, n: int):
        """Inverse of nth: the rank of a member, or None."""
        if n not in self:
            return None
        return len(self.elements_below(n + 1)) - 1

    # -- Boolean algebra -----------------------------------------------
    def _combine(self, other: "CertSet", op) -> "CertSet":
        m = lcm(self.modulus, other.modulus)
        t = max(self.threshold, other.threshold)
        residues = frozenset(r for r in range(m)
                             if op(r % self.modulus in self.residues,
                                   r % other.modulus in other.residues))
        below = frozenset(x for x in range(t) if op(x in self, x in other))
        return CertSet(t, m, residues, below)

    def union(self, other: "CertSet") -> "CertSet":
        return self._combine(other, lambda a, b: a or b)

    def intersect(self, other: "CertSet") -> "CertSet":
        return self._combine(other, lambda a, b: a and b)

    def diff(self, other: "CertSet") -> "CertSet":
        return self._combine(other, lambda a, b: a and not b)

    def complement(self) -> "CertSet":
        return CertSet.naturals().diff(self)

    # -- certified comparisons ------------------------------------------
    def eq_star(self, other: "CertSet"):
        """(equal modulo finite?, exact symmetric-difference set or None)."""
        d = self._combine(other, lambda a, b: a != b)
        if d.is_infinite():
            return False, None
        return True, d.finite_elements()

    def subset_star(self, other: "CertSet"):
        """(almost contained?, exact exception set self minus other, or None)."""
        d = self.diff(other)
        if d.is_infinite():
            return False, None
        return True, d.finite_elements()

    def almost_disjoint(self, other: "CertSet"):
        """Exact finite intersection, or NotAlmostDisjointError carrying an
        infinite witness progression (a, d)."""
        inter = self.intersect(other)
        if inter.is_infinite():
            r = min(inter.residues)
            a = inter.threshold + ((r - inter.threshold) % inter.modulus)
            raise NotAlmostDisjointError(
                "intersection contains the progression {%d + %d k}" % (a, inter.modulus),
                witness=(a, inter.modulus))
        return inter.finite_elements()

    # -- serialization ---------------------------------------------------
    def to_json_obj(self):
        return {"threshold": self.threshold, "modulus": self.modulus,
                "residues": sorted(self.residues), "below": sorted(self.below)}

    @staticmethod
    def from_json_obj(obj) -> "CertSet":
        return CertSet(obj["threshold"], obj["modulus"],
                       frozenset(obj["residues"]), frozenset(obj["below"]))

    def indicator_tail(self):
        """The 0/1 indicator sequence as an eventually periodic vector."""
        from ..tails import TailVector
        prefix = tuple(1 if i in self else 0 for i in range(self.threshold))
        period = tuple(1 if (i + self.threshold) % self.modulus in self.residues else 0
                       for i in range(self.modulus))
        return TailVector(prefix, period)

    def affine_image(self, m: int, b: int) -> "CertSet":
        """{m x + b : x in self} for m >= 1, b >= 0... b may be any int with
        m x + b >= 0 for all members; raises otherwise."""
        if m < 1:
            raise ParameterError("multiplier must be positive")
        mod = m * self.modulus
        residues = frozenset((m * (self.threshold + k) + b) % mod
                             for k in range(self.modulus)
                             if (self.threshold + k) % self.modulus in self.residues)
        below_imgs = [m * x + b for x in self.below]
        if any(v < 0 for v in below_imgs):
            raise ParameterError("affine image leaves the naturals")
        t = m * self.threshold + b
        if t < 0:
            raise ParameterError("affine image leaves the naturals")
        # indices below the image threshold that the rule would wrongly claim
        below = frozenset(v for v in below_imgs)
        return CertSet(t, mod, residues, below)
