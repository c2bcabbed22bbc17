"""Certified subsets of the naturals.

A CertSet is stored in a normal form (threshold, modulus, residues,
below): n >= threshold belongs iff n % modulus is in residues, and
n < threshold belongs iff n is in below.  This is equivalent to "finite
union of arithmetic progressions plus finite patches".  The form is
closed under union, intersection, difference and complement, and makes
membership, infinitude, =*, and subset-modulo-finite decidable with
explicit finite exception sets as certificates.

The normal form is unique: the modulus is the least period of the rule,
and the threshold is then the least one from which the rule holds.  Two
descriptions of one set store the same four fields and the same JSON,
whichever algorithm reduced them, so a change of the kernels below
cannot move output bytes.

Costs.  A side's lifted residues are its residues written modulo the
lcm of the moduli: len(residues) * lcm // modulus of them.  Its
explicit members are its below part and its rule members between its
threshold and the largest one.  Each candidate costs one membership
test per side.

- Normal form: trial division of gcd(modulus, len(residues)), which is
  at most len(residues), whatever the size of the modulus; one pass over
  the residues per prime divided out; and len(below) + 1 steps for the
  threshold.
- union and eq_star: the lifted residues and explicit members of both
  sides.
- union_all: those of every set, lifted once to the lcm of all the
  moduli, where a fold of union would lift and reduce the growing union
  once per set.
- diff and subset_star: those of self.
- intersect and almost_disjoint: the lifted residues of the side with
  fewer of them, and the below part of the side with the larger
  threshold.
- nth and rank: one sort (nth) or one pass (rank) over the below part
  and the residues, whatever the size of the element.

A family's pairwise certificates do not go through almost_disjoint:
once families.make_family has checked that no two rules meet, each
certificate is the intersection of two sets' bit masks over the points
of the below parts, and equal certificates are one shared list.

The lift still grows with lcm // modulus, so a union of many sets with
unrelated moduli costs the lcm, and the explicit members grow with the
gap between the thresholds.  An operation that would lift more
residues, or enumerate more explicit members, than MAX_LIFT raises
ParameterError before it enumerates anything; each count costs one
step per residue.  A form of disjoint residue classes plus a finite
patch, intersected by the Chinese remainder theorem, would remove the
growth of the lift; it is not built yet (ROADMAP item 3, step 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm

from ..errors import NotAlmostDisjointError, ParameterError
from ..linalg import check_int


# The most lifted residues, and the most explicit members, that one
# Boolean operation may enumerate.  A lift costs lcm / modulus residues
# per residue, so a union across a progression family (set i has modulus
# 2^(i+1)) doubles it per set; the bound stops such a chain after about
# 17 sets, in well under a second.  The tests, the certify workload and
# build-coherent --cells 2 --sample-offsets 17 lift at most 131 071
# residues and enumerate at most 768 explicit members in one operation.
MAX_LIFT = 1 << 17


def _prime_factors(n):
    p = 2
    while p * p <= n:
        if n % p == 0:
            yield p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        yield n


def _last_gap(t, m, residues, below):
    """The largest x < t with x % m in residues and x not in below, or -1.

    Walks the rule members below t downwards; every step but the last
    passes a member of below, so it takes at most len(below) + 1 steps."""
    if not residues:
        return -1
    offsets = sorted((t - 1 - r) % m for r in residues)
    for top in range(t - 1, -1, -m):
        for d in offsets:
            x = top - d
            if x < 0:
                return -1
            if x not in below:
                return x
    return -1


def _minimize(threshold, modulus, residues, below):
    if any(x < 0 for x in below):
        raise ParameterError("negative elements are not allowed")
    # least period: the periods that divide the modulus are closed under
    # gcd, so dividing out one prime at a time while the residues stay
    # invariant under the shorter shift reaches the least one; the empty
    # rule has period 1.  The residues are a union of cosets of the
    # shifts that fix them, a group of order modulus / least period, so
    # only primes of gcd(modulus, len(residues)) can shorten the period
    if not residues:
        modulus = 1
    for p in _prime_factors(gcd(modulus, len(residues))):
        while modulus % p == 0:
            step = modulus // p
            if not all((r + step) % modulus in residues for r in residues):
                break
            modulus = step
            residues = frozenset(r % step for r in residues)
    # least threshold: one above the last point below it where the
    # explicit part and the rule disagree
    below = frozenset(x for x in below if x < threshold)
    t = 1 + max(_last_gap(threshold, modulus, residues, below),
                max((x for x in below if x % modulus not in residues),
                    default=-1))
    return t, modulus, residues, frozenset(x for x in below if x < t)


def _check(count, what, top):
    if count > MAX_LIFT:
        raise ParameterError("combining these sets %s, above the bound of %d"
                             % (what % (count, top), MAX_LIFT))


def _lifted(sides, m):
    """The residues of every side's rule modulo m, a multiple of each
    modulus, counted before any is enumerated."""
    _check(sum(s._lift_size(m) for s in sides),
           "lifts %d residues modulo %d", m)
    return (r + k for s in sides for r in s.residues
            for k in range(0, m, s.modulus))


def _explicit(sides, t):
    """The members below t, at or above every threshold, of every side:
    its below part, then its rule members in [threshold, t), one range
    per residue, counted by the bounds (len() fails past sys.maxsize)
    before any is enumerated."""
    ranges = [range(s.threshold + (r - s.threshold) % s.modulus, t, s.modulus)
              for s in sides for r in s.residues]
    _check(sum(len(s.below) for s in sides)
           + sum(max(0, -((p.start - t) // p.step)) for p in ranges),
           "enumerates %d members below %d", t)
    return chain(*(s.below for s in sides), *ranges)


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
        elements = frozenset(check_int(x, "element") for x in elements)
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
        s = CertSet.union_all([CertSet.ap(a, d) for a, d in progressions]
                              + [CertSet.finite(add)])
        return s.diff(CertSet.finite(remove))

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
        """Inverse of nth: the rank of a member, or None.  Counts the below
        part, then the full blocks of the rule, then the residues met
        first in the partial block, so it costs len(below) +
        len(residues) steps, not n."""
        if n not in self:
            return None
        if n < self.threshold:
            return sum(1 for x in self.below if x < n)
        block, offset = divmod(n - self.threshold, self.modulus)
        return (len(self.below) + block * len(self.residues)
                + sum(1 for r in self.residues
                      if (r - self.threshold) % self.modulus < offset))

    # -- Boolean algebra -----------------------------------------------
    def _lift_size(self, m):
        return len(self.residues) * (m // self.modulus)

    def _combine(self, other: "CertSet", op) -> "CertSet":
        # op(False, False) is False, so every member of the result is a
        # member of a side that op keeps on its own; when op keeps neither
        # alone it needs both, and the cheaper side bounds the result
        m = lcm(self.modulus, other.modulus)
        t = max(self.threshold, other.threshold)
        keep = [s for s, kept in ((self, op(True, False)),
                                  (other, op(False, True))) if kept]
        rule_sides = keep or [min(self, other, key=lambda s: s._lift_size(m))]
        below_sides = keep or [max(self, other, key=lambda s: s.threshold)]
        lifted, explicit = _lifted(rule_sides, m), _explicit(below_sides, t)
        residues = frozenset(r for r in lifted
                             if op(r % self.modulus in self.residues,
                                   r % other.modulus in other.residues))
        below = frozenset(x for x in explicit if op(x in self, x in other))
        return CertSet(t, m, residues, below)

    def union(self, other: "CertSet") -> "CertSet":
        return self._combine(other, lambda a, b: a or b)

    @staticmethod
    def union_all(sets) -> "CertSet":
        """The union of the sets, each lifted once to the lcm of all the
        moduli; the normal form is unique, so it stores what a fold of
        union stores."""
        sets = list(sets)
        t = max((s.threshold for s in sets), default=0)
        m = lcm(*(s.modulus for s in sets))
        return CertSet(t, m, _lifted(sets, m), _explicit(sets, t))

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
        t, m = (check_int(obj[k], k) for k in ("threshold", "modulus"))
        return CertSet(t, m, frozenset(check_int(r, "residue") for r in obj["residues"]),
                       frozenset(check_int(x, "element") for x in obj["below"]))

    def indicator_tail(self):
        """The 0/1 indicator sequence as an eventually periodic vector."""
        from ..tails import MAX_TAIL, TailVector
        if max(self.threshold, self.modulus) > MAX_TAIL:
            raise ParameterError(
                "the indicator tail of a set with threshold %d and modulus %d "
                "exceeds the bound of %d" % (self.threshold, self.modulus, MAX_TAIL))
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
