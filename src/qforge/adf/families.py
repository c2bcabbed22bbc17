"""Almost-disjoint family constructors and certified family-level queries.

Costs.  make_family checks the periodic rules once per pair of
distinct moduli.  A family lists the exact finite intersection of every
pair of its sets on first use of `Family.intersections`, and builds no
intersection CertSet: each set is a bit mask over the points of the
union of the below parts, found with one lookup per point and distinct
modulus, and a pair's certificate is the intersection of two masks.
Equal certificates are one shared list, decoded once, and the JSON
writer writes it once per dict.  A family of n sets therefore costs
n^2 / 2 mask intersections plus one decode per distinct certificate,
not n^2 / 2 CertSet operations, and a reader of its sets alone, such as
mad-census, pays none of it.  Each generated set is one CertSet call.
separation_find unites the inside sets with one CertSet.union_all and
makes one almost_disjoint per outside set; mad_census makes one
intersect per member and decides the rest by densities, and lifts the
union of the family only to list a finite residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd

from ..errors import NotAlmostDisjointError, ParameterError
from ..linalg import check_int
from .certset import CertSet
from .ordinals import OrdinalIdx

# the largest count of each kind: build-adf at each takes at most 0.25 s
# as a whole process on a 2-vCPU machine (tests/test_cli.py holds it to a
# budget)
MAX_COUNT = {"progression": 256, "branch": 256, "luzin": 160}
# a branch set stores depth prefix codes below 2^(depth + 1), so the output
# grows with count * depth^2: 256 branch sets of depth 16 take about 0.17 s
MAX_DEPTH = 16
# the largest block count of an ordinal family: build-coherent with
# --cells, --blocks and --cap w*b all at b = 32 takes 0.16-0.30 s as a
# whole process on a 2-vCPU machine, and its 0.09 s of work grows with
# about the square of b, the count of stage pairs (3.2 times from 16 to 32)
MAX_BLOCKS = 32
LUZIN_CHECK_HORIZON = 64   # stages up to which the Luzin bound is checked
MAX_VALUATION = 16         # largest dyadic valuation of an ordinal family


@dataclass(frozen=True)
class FamilyGenerator:
    kind: str  # progression | branch | luzin | explicit
    count: int = 0
    depth: int = 4
    sets: tuple = ()

    def __post_init__(self):
        if self.kind not in ("progression", "branch", "luzin", "explicit"):
            raise ParameterError("unknown family kind %r" % self.kind)
        if self.kind != "explicit" and not (
                0 < check_int(self.count, "count") <= MAX_COUNT[self.kind]):
            raise ParameterError("%s count must be in [1, %d]"
                                 % (self.kind, MAX_COUNT[self.kind]))
        if not 0 <= check_int(self.depth, "depth") <= MAX_DEPTH:
            raise ParameterError("depth must be in [0, %d]" % MAX_DEPTH)


@dataclass(frozen=True)
class Family:
    """Infinite sets whose periodic rules are pairwise disjoint, so any
    two meet in a finite set."""

    kind: str
    sets: tuple
    luzin_bound: tuple = ()  # (check_horizon, L) with L(n) = n

    @cached_property
    def intersections(self) -> dict:
        """(i, j) -> the exact finite intersection of sets i < j as a
        sorted list, listed on first use."""
        return _pairwise_certificates(self.sets)

    def __len__(self):
        return len(self.sets)

    def __getitem__(self, i):
        return self.sets[i]


def _rules_meet(sets):
    """Do the periodic rules of some two of the sets share a point?

    By the Chinese remainder theorem two rules meet, and then in
    infinitely many points, exactly when a residue of one is congruent
    to a residue of the other modulo the gcd of their moduli.  The
    residues are pooled per modulus, so the cost is one pass per pair of
    distinct moduli, not per pair of sets."""
    pools = {}
    for s in sets:
        pools.setdefault(s.modulus, []).extend(s.residues)
    moduli = sorted(pools)
    for a, m in enumerate(moduli):
        # the residues of one set are distinct, so a repeat in a pool is
        # a residue that two sets share
        if len(set(pools[m])) < len(pools[m]):
            return True
        for m2 in moduli[a + 1:]:
            g = gcd(m, m2)
            if not {r % g for r in pools[m]}.isdisjoint(
                    [r % g for r in pools[m2]]):
                return True
    return False


def _check_rules(sets):
    """Raise the NotAlmostDisjointError of CertSet.almost_disjoint for the
    first pair (i, j), i < j, whose periodic rules meet, if any does."""
    if _rules_meet(sets):
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                if _rules_meet([sets[i], sets[j]]):
                    sets[i].almost_disjoint(sets[j])


def _pairwise_certificates(sets):
    """The exact finite intersection of every pair (i, j), i < j, as a
    sorted list, in one pass over the family.

    When no two rules meet, a common point x of a pair lies below the
    larger threshold of the two, so it is in that set's below part.  So
    each set gets one bit mask over the points of the union of the below
    parts: below its threshold from its below part, at or above it from
    its rule, and at most one set's rule holds a given point.  The
    certificate of (i, j) is masks[i] & masks[j]; a mask met for the
    first time is decoded once, by its set bits, and every pair with that
    mask shares the one list, so the lists are read-only.  When some
    rules meet, the first such pair raises the NotAlmostDisjointError of
    CertSet.almost_disjoint.
    """
    n = len(sets)
    _check_rules(sets)
    points = sorted(set().union(*(s.below for s in sets)))
    index = {x: b for b, x in enumerate(points)}
    masks = [sum(1 << index[x] for x in s.below) for s in sets]
    # modulus -> residue -> the one set whose rule holds that class
    rules = {}
    for k, s in enumerate(sets):
        rules.setdefault(s.modulus, {}).update(dict.fromkeys(s.residues, k))
    for b, x in enumerate(points):
        for m, owners in rules.items():
            k = owners.get(x % m)
            if k is not None and x >= sets[k].threshold:
                masks[k] |= 1 << b
    shared, certs = {}, {}
    for i, mask in enumerate(masks):
        for j in range(i + 1, n):
            both = mask & masks[j]
            cert = shared.get(both)
            if cert is None:
                cert = shared[both] = []
                while both:
                    low = both & -both
                    cert.append(points[low.bit_length() - 1])
                    both ^= low
            certs[(i, j)] = cert
    return certs


def _progression_sets(count):
    """Dyadic valuation classes {n : v2(n) = i}, an exact partition of
    the positive naturals into progressions."""
    return [CertSet.ap(2 ** i, 2 ** (i + 1)) for i in range(count)]


def _branch_sets(count, depth):
    """Tree-branch style sets: the i-th set holds the prefix codes of the
    i-th length-`depth` binary word plus the arithmetic continuation of
    that word's residue class above the coding range."""
    if count > 2 ** depth:
        raise ParameterError("at most 2^depth branch words exist")
    sets = []
    for i in range(count):
        word = format(i, "0%db" % depth)
        prefixes = {2 ** (k + 1) + int(word[: k + 1], 2) for k in range(depth)}
        # every prefix code lies below 2^(depth + 1), where the
        # continuation starts
        sets.append(CertSet(2 ** (depth + 1) + i, 2 ** depth, {i}, prefixes))
    return sets


def _luzin_sets(count):
    """Classical recursion: the alpha-th set is a fresh residue class plus
    one meeting point inside every earlier set, each pushed above the
    stage index so that meeting points below n exist for fewer than n
    earlier sets (the recorded bound L(n) = n)."""
    sets = []
    for alpha in range(count):
        picks = []
        prev = -1
        for beta in range(alpha):
            lo = max(alpha, beta, prev + 1)
            # least member of the beta-th base class at or above lo
            x = lo + ((beta - lo) % count)
            picks.append(x)
            prev = x
        # above the last pick the set is its base class alone
        base = range(alpha, prev + 1, count)
        sets.append(CertSet(prev + 1, count, {alpha}, picks + list(base)))
    return sets


def make_family(gen: FamilyGenerator) -> Family:
    if gen.kind == "progression":
        sets = _progression_sets(gen.count)
    elif gen.kind == "branch":
        sets = _branch_sets(gen.count, gen.depth)
    elif gen.kind == "luzin":
        sets = _luzin_sets(gen.count)
    else:
        sets = [s if isinstance(s, CertSet) else CertSet.from_json_obj(s)
                for s in gen.sets]
    for s in sets:
        if not s.is_infinite():
            raise ParameterError("family members must be infinite")
    _check_rules(sets)
    if gen.kind != "luzin":
        return Family(gen.kind, tuple(sets))
    fam = Family(gen.kind, tuple(sets), (LUZIN_CHECK_HORIZON, "L(n) = n"))
    verify_luzin_bound(sets, fam.intersections, LUZIN_CHECK_HORIZON)
    return fam


def verify_luzin_bound(sets, certs, horizon):
    """Check the stage invariant: for every alpha and n <= horizon, at most
    n earlier sets meet the alpha-th set only below n."""
    from bisect import bisect_left

    for alpha in range(len(sets)):
        tops = sorted((certs[(beta, alpha)] or [-1])[-1]
                      for beta in range(alpha))
        for n in range(horizon + 1):
            if bisect_left(tops, n) > n:
                raise ParameterError(
                    "luzin invariant fails at stage %d, n=%d" % (alpha, n))


@dataclass(frozen=True)
class Separation:
    separator: CertSet
    inside_exceptions: tuple   # per B-family member: elements outside separator
    outside_exceptions: tuple  # per C-family member: elements inside separator


def separation_find(b_family, c_family) -> Separation:
    """A set almost containing every member of b_family and almost disjoint
    from every member of c_family, with both certificate directions."""
    v = CertSet.union_all(b_family)
    v = v.diff(CertSet.finite([x for c in c_family
                               for x in v.almost_disjoint(c)]))
    inside = []
    for b in b_family:
        ok, exc = b.subset_star(v)
        if not ok:
            raise NotAlmostDisjointError("separator lost an infinite part")
        inside.append(tuple(exc))
    outside = []
    for c in c_family:
        outside.append(tuple(v.almost_disjoint(c)))
    return Separation(v, tuple(inside), tuple(outside))


@dataclass(frozen=True)
class MadCensus:
    infinite_meet: tuple       # indices with certified infinite intersection
    finite_meet: dict          # index -> exact finite intersection
    residual_finite: bool      # is X minus the union finite?
    residual: tuple            # the finite residual, when it is finite
    covering_indices: tuple    # minimal-by-scan subfamily almost covering X


def mad_census(family: Family, x: CertSet) -> MadCensus:
    """Which members meet x infinitely, and does the family almost cover x?

    One intersect per member decides its meet.  An infinite meet agrees,
    from some point on, with the periodic set rule(a) & rule(x), whose
    density is its share len(residues) / modulus.  make_family has
    proved the members' rules pairwise disjoint, so the rules of any
    subfamily meet rule(x) in disjoint periodic sets whose densities add
    up.  Their union lies inside rule(x), and a periodic set of density 0
    is empty, so the subfamily almost covers x exactly when its shares
    add up to the density of x.  Hence x minus the union is finite when
    all shares add up to that density, and the greedy cover is the
    shortest prefix of the infinite meets whose shares reach it.  A
    finite residual is x minus the union of the meets, which lie in x.
    """
    meets = [a.intersect(x) for a in family.sets]
    infinite, finite, shares = [], {}, []
    for i, meet in enumerate(meets):
        if meet.is_infinite():
            infinite.append(i)
            shares.append(Fraction(len(meet.residues), meet.modulus))
        else:
            finite[i] = tuple(meet.finite_elements())
    density = Fraction(len(x.residues), x.modulus)
    covered = list(accumulate(shares, initial=0))
    if covered[-1] != density:
        return MadCensus(tuple(infinite), finite, False, (), ())
    residual = x.diff(CertSet.union_all(meets))
    return MadCensus(tuple(infinite), finite, True,
                     tuple(residual.finite_elements()),
                     tuple(infinite[:covered.index(density)]))


class OrdinalProgressionFamily:
    """Closed-form family indexed by ordinals omega * q + r below
    omega * blocks: member (q, r) is the progression of points n with
    n = q mod cells whose quotient (n - q) / cells has dyadic valuation r.

    Designed so that the chain separators and the W-sets of the coherent
    recursion are exact: fibers A_xi minus W_xi equal A_xi on the nose.
    """

    def __init__(self, cells: int, blocks: int = 4):
        if cells < 1 or blocks < 1 or blocks > cells:
            raise ParameterError("need 1 <= blocks <= cells")
        if blocks > MAX_BLOCKS:
            raise ParameterError("blocks must be at most %d" % MAX_BLOCKS)
        self.cells = cells
        self.blocks = blocks

    def _split(self, xi: OrdinalIdx, boundary=False):
        limit = self.blocks + (1 if boundary else 0)
        if xi.c2 > 0 or xi.c1 >= limit or (boundary and
                                           xi.c1 == self.blocks and xi.c0 > 0):
            raise ParameterError("index %s beyond the family window" % xi)
        return xi.c1, xi.c0  # (q, r)

    def member(self, xi: OrdinalIdx) -> CertSet:
        q, r = self._split(xi)
        if r > MAX_VALUATION:
            raise ParameterError("valuation index beyond cap")
        k = self.cells
        return CertSet.ap(q + k * 2 ** r, k * 2 ** (r + 1))

    def fiber_set(self, xi: OrdinalIdx) -> CertSet:
        """A_xi minus W_xi; equal to A_xi exactly by construction."""
        return self.member(xi)

    def _prefix_union(self, alpha: OrdinalIdx, start: int) -> CertSet:
        """The residue blocks qq < q, each from start + qq on, united with
        the first r valuation fibers of block q."""
        q, r = self._split(alpha, boundary=True)
        return CertSet.union_all(
            [CertSet.ap(start + qq, self.cells) for qq in range(q)]
            + [self.member(OrdinalIdx(0, q, i)) for i in range(r)])

    def w_set(self, alpha: OrdinalIdx) -> CertSet:
        """Exact range of the coherent injection at stage alpha:
        full residue blocks below q, plus the first r valuation fibers."""
        return self._prefix_union(alpha, self.cells)

    def separator(self, alpha: OrdinalIdx) -> CertSet:
        """Chain set V_alpha: members below alpha are almost inside, members
        at or above alpha meet it finitely."""
        return self._prefix_union(alpha, 0)

    def index_of(self, value: int):
        """The unique xi with value in A_xi, or None."""
        q = value % self.cells
        if q >= self.blocks:
            return None
        m = (value - q) // self.cells
        if m <= 0:
            return None
        r = 0
        while m % 2 == 0:
            m //= 2
            r += 1
        if r > MAX_VALUATION:
            return None
        return OrdinalIdx(0, q, r)
