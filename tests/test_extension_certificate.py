"""The checks `extend_isomorphism` makes of what it built, each made to
fire on a small map.

A built extension passes them, so no workload reaches their failures.
Each test here breaks one input of one check: the projection's Psi B = I
through a wrong Hahn-Banach row, w w^-1 = I through one entry of w or of
w^-1, w B_1 = B_2 through w and w^-1 scaled against each other, and the
c2 bound through a c2 below the norm of the block it builds.
"""

from fractions import Fraction

import pytest

from dense_oracles import rmatrix_scale
from qforge import geometry
from qforge.config import RunConfig
from qforge.errors import NormBudgetError
from qforge.geometry import LinMap, Subspace, extend_isomorphism
from test_extension_kernel import edited
from test_extension_oracles import CONFIG, wv

# (1, 1, 0, 0) -> (1, 0, 0, 0): an isometry, whose extension has
# |w| = |w^-1| = 2
LINE = LinMap(Subspace(0, 4, (wv(1, 1, 0, 0),)), (wv(1, 0, 0, 0),))
# a plane mapped isometrically, h = 2
PLANE = LinMap(Subspace(0, 4, (wv(1, 1, 0, 0), wv(0, 0, 1, -1))),
               (wv(1, 0, 0, 0), wv(0, 1, 1, 0)))


def edit_blocks(monkeypatch, edit):
    """Patch `extension_block` so that edit(k, block) replaces the k-th
    block it builds: k = 0 is w, k = 1 is w^-1."""
    build = geometry.extension_block
    built = []

    def edited_block(*args):
        block = edit(len(built), build(*args))
        built.append(block)
        return block
    monkeypatch.setattr(geometry, "extension_block", edited_block)
    return built


@pytest.mark.parametrize("t", [LINE, PLANE])
def test_unedited_extensions_pass(monkeypatch, t):
    built = edit_blocks(monkeypatch, lambda k, block: block)
    ext = extend_isomorphism(t, CONFIG)
    assert [ext.w, ext.w_inv] == built


def test_a_wrong_hahn_banach_row_fails_the_projection(monkeypatch):
    # the second row of Psi_1 gains a 1 on coordinate 0, so Psi_1 B_1 != I
    extend = geometry.hahn_banach_extend

    def wrong(y, phi):
        u, value = extend(y, phi)
        if list(phi) == [0, 1] and y is PLANE.domain:
            u = u.add(wv(1, 0, 0, 0))
        return u, value
    monkeypatch.setattr(geometry, "hahn_banach_extend", wrong)
    with pytest.raises(NormBudgetError, match="^projection does not fix the subspace$"):
        extend_isomorphism(PLANE, CONFIG)


@pytest.mark.parametrize("t", [LINE, PLANE])
@pytest.mark.parametrize("k", [0, 1])
def test_one_wrong_entry_fails_the_inverse(monkeypatch, t, k):
    def edit(j, block):
        if j != k:
            return block
        row, col, value = next(iter(block.items()))
        return edited(block, put=(row, col, value + 1))
    edit_blocks(monkeypatch, edit)
    with pytest.raises(NormBudgetError, match="^extension inverse verification failed$"):
        extend_isomorphism(t, CONFIG)


@pytest.mark.parametrize("t", [LINE, PLANE])
def test_a_rescaled_pair_fails_the_basis(monkeypatch, t):
    # 2w and w^-1 / 2 are still inverse to each other, but 2w B_1 = 2 B_2
    edit_blocks(monkeypatch,
                lambda k, block: rmatrix_scale(block, Fraction(1, 2) if k else 2))
    with pytest.raises(NormBudgetError,
                       match="^extension does not agree with t on the basis$"):
        extend_isomorphism(t, CONFIG)


def test_a_norm_above_c2_fails_the_budget():
    # |T| = |T^-1| = 1 < rho, and the block built has both norms 2 > c2
    low = RunConfig(rho=Fraction(3, 2), c2=Fraction(3, 2))
    assert extend_isomorphism(LINE, CONFIG).norm_w == 2
    with pytest.raises(NormBudgetError, match="^extension norm exceeds c2$") as e:
        extend_isomorphism(LINE, low)
    assert e.value.measured == (2, 2)
