"""`complement_iso` stages 2 and 3, pinned on small inputs.

Stage 2 matches sign patterns of the sup-normalized bases; stage 3 tries
every scaled bijection at small dimension.  Neither input below has
disjointly supported bases on both sides (stage 1).  There is no stage 0:
equal spans reach the search from `extend_isomorphism` as equal kernel
bases, and stage 1 or 2 returns the identity on them.
"""

from fractions import Fraction

from qforge.geometry import Subspace, complement_iso
from qforge.linalg import WindowVector


def span(n, *vectors):
    return Subspace(0, n, tuple(WindowVector(0, n, v) for v in vectors))


def coords(q):
    return [w.coords for w in q.images]


def test_stage_2_sign_pattern_matching():
    z1 = span(3, (0, 1, 1), (1, -1, 1))
    z2 = span(3, (0, -1, -1), (0, 0, 1))
    q = complement_iso(z1, z2, budget=2)
    assert coords(q) == [(0, 1, 1), (0, 0, -1)]
    assert q.norm() == 1
    assert q.lower() == Fraction(1, 3)


def test_stage_3_scaled_bijection():
    z1 = span(4, (2, 0, 0, 0), (-1, 1, 0, 1))
    z2 = span(4, (-1, 0, 0, 1), (0, 1, 1, 2))
    q = complement_iso(z1, z2, budget=2)
    assert coords(q) == [(-1, 0, 0, 1), (0, -1, -1, -2)]
    assert q.norm() == q.lower() == 1
