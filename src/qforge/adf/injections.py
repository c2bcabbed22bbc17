"""Certified injections between subsets of the naturals.

An NInjection is a first-match list of affine rules on certified pieces
plus a finite patch of point overrides.  The class is closed under the
restriction/recombination used by the extension algorithm, injectivity
is decided exactly (piece images must be exactly disjoint), and
equality-modulo-finite of two injections is decidable because two
distinct affine maps agree at most once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import HypothesisViolationError, NotInjectiveError, ParameterError
from ..linalg import check_int
from .certset import CertSet


@dataclass(frozen=True)
class NInjection:
    domain: CertSet
    pieces: tuple = ()       # ((CertSet, (m, b)), ...), first match wins
    patch: tuple = ()        # ((point, value), ...), overrides the rules

    def __post_init__(self):
        pieces = tuple((p, (check_int(m, "multiplier"), check_int(b, "offset")))
                       for p, (m, b) in self.pieces)
        patch = tuple(sorted((check_int(k, "patch point"), check_int(v, "patch value"))
                             for k, v in dict(self.patch).items()))
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "patch", patch)
        object.__setattr__(self, "_patch_map", dict(patch))
        for k, _ in patch:
            if k not in self.domain:
                raise ParameterError("patch point %d outside the domain" % k)
        object.__setattr__(self, "_effective", self._effective_pieces())
        covered = CertSet.finite(self._patch_map)
        for eff, _ in self._effective:
            covered = covered.union(eff)
        if not self.domain.diff(covered).is_empty():
            raise ParameterError("domain points without a rule or patch")
        object.__setattr__(self, "range_set", self._range_and_injectivity())

    def _effective_pieces(self):
        taken = CertSet.finite(self._patch_map)
        out = []
        for piece, rule in self.pieces:
            eff = piece.intersect(self.domain).diff(taken)
            taken = taken.union(eff)
            if not eff.is_empty():
                out.append((eff, rule))
        return tuple(out)

    def _range_and_injectivity(self):
        images = [eff.affine_image(m, b) for eff, (m, b) in self._effective]
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if not images[i].intersect(images[j]).is_empty():
                    raise NotInjectiveError(
                        "rule images overlap on pieces %d and %d" % (i, j))
        patch_values = [v for _, v in self.patch]
        if len(set(patch_values)) != len(patch_values):
            raise NotInjectiveError("patch values collide")
        rng = CertSet.finite(patch_values)
        for img in images:
            if not rng.intersect(img).is_empty():
                raise NotInjectiveError("a patch value collides with a rule image")
            rng = rng.union(img)
        return rng

    # -- constructors ----------------------------------------------------
    @staticmethod
    def affine(domain: CertSet, m: int, b: int, patch=()) -> "NInjection":
        return NInjection(domain, ((domain, (m, b)),), tuple(dict(patch).items()))

    @staticmethod
    def identity(domain: CertSet) -> "NInjection":
        return NInjection.affine(domain, 1, 0)

    # -- evaluation -------------------------------------------------------
    def value(self, n: int) -> int:
        if n not in self.domain:
            raise ParameterError("%d is outside the domain" % n)
        if n in self._patch_map:
            return self._patch_map[n]
        for eff, (m, b) in self._effective:
            if n in eff:
                return m * n + b
        raise ParameterError("%d has no rule" % n)  # unreachable after checks

    def preimage(self, v: int):
        for k, val in self.patch:
            if val == v:
                return k
        for eff, (m, b) in self._effective:
            if (v - b) % m == 0:
                x = (v - b) // m
                if x >= 0 and x in eff:
                    return x
        return None

    # -- structure ---------------------------------------------------------
    def restrict(self, a: CertSet) -> "NInjection":
        dom = self.domain.intersect(a)
        return NInjection(dom, self.pieces,
                          tuple((k, v) for k, v in self.patch if k in dom))

    def eq_star_on(self, other: "NInjection", a: CertSet):
        """(equal on a modulo finite?, exact exception set or None).

        a must lie inside both domains.  Points covered by identical
        affine rules on both sides agree; outside that region two
        distinct affine maps can only meet once, so an infinite residue
        means infinitely many disagreements.
        """
        for dom in (self.domain, other.domain):
            if not a.diff(dom).is_empty():
                raise ParameterError("comparison window exceeds a domain")
        agree = CertSet.empty()
        for p1, r1 in self._effective:
            for p2, r2 in other._effective:
                if r1 == r2:
                    agree = agree.union(p1.intersect(p2))
        agree = agree.intersect(a)
        candidates = a.diff(agree).union(
            CertSet.finite([k for k, _ in self.patch if k in a])).union(
            CertSet.finite([k for k, _ in other.patch if k in a]))
        candidates = candidates.intersect(a)
        if candidates.is_infinite():
            return False, None
        exc = [x for x in candidates.finite_elements()
               if self.value(x) != other.value(x)]
        return True, exc

    def to_json_obj(self):
        return {
            "domain": self.domain.to_json_obj(),
            "pieces": [[p.to_json_obj(), [m, b]] for p, (m, b) in self.pieces],
            "patch": [[k, v] for k, v in self.patch],
        }


def _require(cond, number, message):
    if not cond:
        raise HypothesisViolationError(number, message)


def nice_ext(a: CertSet, b: CertSet, c: CertSet,
             f: NInjection, g: NInjection, big_f) -> NInjection:
    """Extend f to an injection h on b with h almost equal to g and the
    finite target set big_f inside the range.

    Hypotheses, each rejected with its number:
      (1) a is contained in b and b minus a is infinite
      (2) f is an injection from a into c
      (3) g is injective on all of b
      (4) the range of g is almost inside c
      (5) c minus the range of g is infinite
      (6) f agrees with g on a modulo a finite set
      (7) big_f is a finite subset of c
    """
    big_f = sorted(set(check_int(x, "target") for x in big_f))
    _require(a.diff(b).is_empty() and b.diff(a).is_infinite(), 1,
             "need a inside b with infinite complement")
    _require(f.domain == a and f.range_set.diff(c).is_empty(), 2,
             "f must map exactly a into c")
    _require(g.domain == b, 3, "g must be defined on exactly b")
    ok4, exc4 = g.range_set.subset_star(c)
    _require(ok4, 4, "range of g must be almost inside c")
    _require(c.diff(g.range_set).is_infinite(), 5,
             "c minus range of g must be infinite")
    ok6, exc6 = f.eq_star_on(g, a)
    _require(ok6, 6, "f and g must agree on a modulo a finite set")
    _require(all(x in c for x in big_f), 7, "targets must lie inside c")

    ba = b.diff(a)
    # d1: points of b minus a whose g-value escapes c
    d1 = set()
    for v in exc4:
        x = g.preimage(v)
        if x is not None and x in ba:
            d1.add(x)
    # d2: points of b minus a whose g-value is already an f-value; such a
    # value must be f(y) for some disagreement point y of hypothesis (6)
    d2 = set()
    for y in exc6:
        x = g.preimage(f.value(y))
        if x is not None and x in ba:
            d2.add(x)
    d3 = set(d1) | set(d2)

    def missing_targets():
        out = []
        for v in big_f:
            if f.preimage(v) is not None:
                continue
            x = g.preimage(v)
            if x is not None and x in ba and x not in d3:
                continue
            out.append(v)
        return out

    # grow d3 until it can host every target not already in the range;
    # each added point can unhook at most one more target, so this settles
    missing = missing_targets()
    i = 0
    while len(d3) < len(missing):
        d3.add(ba.nth(i))
        i += 1
        missing = missing_targets()
    d3 = sorted(d3)
    # fresh targets avoid both ranges entirely, so no collision is possible
    fresh_pool = c.diff(g.range_set).diff(f.range_set)
    used = set(missing)
    assignments = {}
    for idx, x in enumerate(d3):
        if idx < len(missing):
            assignments[x] = missing[idx]
        else:
            j = 0
            while fresh_pool.nth(j) in used:
                j += 1
            v = fresh_pool.nth(j)
            assignments[x] = v
            used.add(v)

    pieces = tuple((p.intersect(a), rule) for p, rule in f.pieces) + \
        tuple((p.intersect(ba), rule) for p, rule in g.pieces)
    patch = {k: v for k, v in f.patch if k in a}
    patch.update({k: v for k, v in g.patch if k in ba and k not in assignments})
    patch.update(assignments)
    return NInjection(b, pieces, tuple(patch.items()))


def verify_nice_ext(h: NInjection, a: CertSet, b: CertSet, c: CertSet,
                    f: NInjection, g: NInjection, big_f, horizon=500):
    """Replay the four output clauses; returns the list of failures."""
    failures = []
    if h.domain != b:
        failures.append("domain is not b")
    if not h.range_set.diff(c).is_empty():
        failures.append("range leaves c")
    # injectivity: the constructor certifies it; spot-check to the horizon
    seen = {}
    for n in b.elements_below(horizon):
        v = h.value(n)
        if v in seen:
            failures.append("collision at %d and %d" % (seen[v], n))
        seen[v] = n
    ok, exc = h.eq_star_on(f, a)
    if not ok or exc:
        failures.append("h does not extend f pointwise on a")
    ok, _ = h.eq_star_on(g, b)
    if not ok:
        failures.append("h differs from g on an infinite set")
    for v in big_f:
        x = h.preimage(v)
        if x is None or x not in b:
            failures.append("target %d not covered" % v)
    return failures
