"""The coherent stage maps agree, call by call, with the recursion they
replaced.

`dense_oracles` keeps the stage maps as they were when each recursed
from a stage's limit part down the fundamental sequence.  Two fresh
systems over equal families answer the same sequence of calls, one
through the library and one through the oracle, and every call must
give the same value, or raise the same exception type with the same
message, and leave each chain checked through the same step.  The
chain checks a call runs stay on its system, so a later call sees what
the earlier ones checked, on both sides alike.  The faulty families of
`test_coherent` make the chain checks raise.
"""

import pytest

import dense_oracles
from qforge.adf.coherent import CoherentFamily, boolean_image
from qforge.adf.families import MAX_VALUATION, OrdinalProgressionFamily
from qforge.adf.ordinals import OrdinalIdx
from qforge.errors import HypothesisViolationError, ParameterError
from test_coherent import LeavesLimitRange, MeetsPreviousRange

LIBRARY = {
    "value": lambda system, alpha, beta: system.stage(alpha).value(beta),
    "preimage": lambda system, alpha, v: system.stage(alpha).preimage(v),
    "coherence": lambda system, gamma, alpha:
        system.coherence_exceptions(gamma, alpha),
    "image": lambda system, alpha, xi: system.image_of_fiber(alpha, xi),
    "boolean": boolean_image,
}
ORACLE = {
    "value": lambda system, alpha, beta:
        dense_oracles.stage_value(system.stage(alpha), beta),
    "preimage": lambda system, alpha, v:
        dense_oracles.stage_preimage(system.stage(alpha), v),
    "coherence": dense_oracles.coherence_exceptions,
    "image": dense_oracles.image_of_fiber,
    "boolean": dense_oracles.boolean_image,
}


def calls(system):
    """(map, args) of every call, in order: each stage w*q + r up to the
    cap with r < 4 against each other stage, each fiber with r < 5 at
    three positions, the points 0-59 and points past MAX_VALUATION; then
    fiber images at stages past the cap and past the family window, and
    Boolean images."""
    cells, blocks = system.family.cells, system.family.blocks
    cap = system.cap
    stages = [OrdinalIdx(0, q, r) for q in range(cap.c1 + 1) for r in range(4)
              if OrdinalIdx(0, q, r) <= cap]
    fibers = [OrdinalIdx(0, q, r) for q in range(blocks) for r in range(5)]
    beyond = cells * 2 ** (MAX_VALUATION + 1)
    points = list(range(60)) + [q + beyond * odd for q in range(blocks + 1)
                                for odd in (1, 3)]
    for alpha in stages:
        for gamma in stages:
            yield "coherence", (gamma, alpha)
        for xi in fibers:
            yield "image", (alpha, xi)
            for j in (0, 1, 5):
                yield "value", (alpha, OrdinalIdx.from_fiber(xi, j))
        for v in points:
            yield "preimage", (alpha, v)
    for alpha in (cap.successor(), OrdinalIdx(0, blocks + 2, 0)):
        for xi in fibers:
            yield "image", (alpha, xi)
    outside = OrdinalIdx(0, blocks + 1, 0)
    for indices in ([], fibers[:1], fibers[1:4], fibers[::3],
                    [fibers[0], outside]):
        for complement in (False, True):
            yield "boolean", (indices, complement)


def outcome(f, *args):
    try:
        return "value", f(*args)
    except Exception as e:
        return type(e), str(e)


def checked(system):
    """{limit: step its chain is checked through}, for each chain begun."""
    return {lam: core._steps for lam, core in system._cores.items()
            if core._steps}


CASES = [(OrdinalProgressionFamily, 3, 3, k) for k in (1, 2, 3)] + [
    (OrdinalProgressionFamily, 4, 2, k) for k in (1, 2)] + [
    (OrdinalProgressionFamily, 2, 1, 1),
    (MeetsPreviousRange, 8, 2, 2), (LeavesLimitRange, 8, 2, 2)]


@pytest.mark.parametrize("family, cells, blocks, k", CASES)
def test_stage_maps_match_the_recursion(family, cells, blocks, k):
    cap = OrdinalIdx(0, k, 0)
    library = CoherentFamily(family(cells=cells, blocks=blocks), cap)
    oracle = CoherentFamily(family(cells=cells, blocks=blocks), cap)
    seen = set()
    for name, args in calls(library):
        got = outcome(LIBRARY[name], library, *args)
        want = outcome(ORACLE[name], oracle, *args)
        assert got == want, (name, args)
        assert checked(library) == checked(oracle), (name, args)
        seen.add(got[0])
    assert "value" in seen and ParameterError in seen
    assert (HypothesisViolationError in seen) == (family is not OrdinalProgressionFamily)
