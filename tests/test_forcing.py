"""Poset of block-diagonal matrix conditions: validation, extension order,
amalgamation, dense-set hitting, and full generic runs."""

from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import from_dense
from qforge import forcing, tails
from qforge.adf.certset import CertSet
from qforge.adf.families import FamilyGenerator, make_family
from qforge.config import RunConfig
from qforge.errors import ParameterError
from qforge.forcing import (
    Condition,
    GenericRun,
    PairedFamilies,
    amalgamate,
    cond_leq,
    default_schedule,
    dense_hit_D,
    dense_hit_E,
    paired_from_certsets,
    run_generic,
    validate_condition,
    verify_run,
)
from qforge.jsonio import canonical_dumps
from qforge.linalg import RMatrix, rank
from qforge.tails import TailVector, check_pi_injective, pi_section_norm
from test_run_file import spiked_families


def paired(count, depth=3):
    fam = make_family(FamilyGenerator("progression", count=count))
    gam = make_family(FamilyGenerator("branch", count=count, depth=depth))
    return paired_from_certsets(gam.sets, fam.sets)


PF1 = paired(1)
PF2 = paired(2)
PF4 = paired(4)
PF8 = paired(8)
CFG = RunConfig(horizon=64)
EMPTY = RMatrix(0, 0, 0, 0, {})


def one_block(m, a=(), inv=None):
    """A condition whose matrix m on [0, n)^2 is one block; it carries inv,
    by default the identity, which most of these blocks are."""
    n = m.row_hi
    return Condition(n, m, a, (0, n) if n else (0,),
                     RMatrix.identity(0, n) if inv is None else inv)


class TestPairedFamilies:
    def test_roundtrip_json(self):
        parts = PairedFamilies.json_parts(PF2.to_json_obj())
        assert PairedFamilies(*parts) == PF2

    def test_rejects_unnormalized(self):
        v = TailVector((5,), (1,))  # sup norm 5, quotient norm 1
        with pytest.raises(ParameterError):
            PairedFamilies((0,), (v,), (TailVector((), (1,)),))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError):
            PairedFamilies((0,), (PF1.fs[0],), ())

    def test_lookup(self):
        assert PF2.f(1).value(0) in (0, 1)
        assert PF2.g(0).tail_sup(0) == 1


class TestValidateCondition:
    def test_trivial_is_valid(self):
        assert validate_condition(Condition.trivial(), PF2, CFG) == []

    def test_identity_block_is_valid(self):
        p = one_block(RMatrix.identity(0, 2))
        assert validate_condition(p, PF2, CFG) == []

    def test_singular_matrix_flagged(self):
        # no inverse a singular block could carry passes M * inv = I
        p = one_block(from_dense([[1, 1], [1, 1]]))
        viol = validate_condition(p, PF2, CFG)
        assert any("carried inverse fails" in v for v in viol)

    def test_norm_violation_flagged(self):
        p = one_block(from_dense([[1000]]),
                      inv=from_dense([["1/1000"]]))
        viol = validate_condition(p, PF2, CFG)
        assert any("exceeds c2" in v for v in viol)

    def test_bad_carried_inverse_flagged(self):
        p = one_block(RMatrix.identity(0, 2),
                      inv=from_dense([[2, 0], [0, 2]]))
        viol = validate_condition(p, PF2, CFG)
        assert any("M * inv" in v for v in viol)

    def test_inverse_window_flagged(self):
        # the blocks read the inverse's rows [0, n) alone, so a stray entry
        # past n went unseen while only the matrix's window was checked
        inv = RMatrix(0, 5, 0, 5, {0: {0: 1}, 1: {1: 1}, 4: {3: 7}})
        p = Condition(2, RMatrix.identity(0, 2), (), (0, 2), inv)
        assert validate_condition(p, PF2, CFG) == ["(a) inverse window is not [0, 2)^2"]

    def test_unknown_index_flagged(self):
        p = one_block(EMPTY, (99,))
        viol = validate_condition(p, PF2, CFG)
        assert any("outside the families" in v for v in viol)

    @pytest.mark.parametrize("xi", [0.0, True])
    def test_index_must_be_an_integer(self, xi):
        # 0.0 and True equal the family index 0 or 1 and would validate
        with pytest.raises(ParameterError, match="not an integer"):
            one_block(EMPTY, (xi,))


class TestCondLeq:
    def test_reflexive(self):
        p = one_block(RMatrix.identity(0, 2), (0,))
        ok, wit = cond_leq(p, p, PF2)
        assert ok and wit == []

    def test_everything_extends_trivial(self):
        p = one_block(RMatrix.identity(0, 3), (0, 1))
        ok, _ = cond_leq(p, Condition.trivial(), PF2)
        assert ok

    def test_changed_stem_entry_fails(self):
        q = one_block(from_dense([[1]]))
        p = one_block(from_dense([[2, 0], [0, 1]]),
                      inv=from_dense([["1/2", 0], [0, 1]]))
        ok, wit = cond_leq(p, q, PF2)
        assert not ok and any("(ii)" in w for w in wit)

    def test_off_block_entry_fails(self):
        q = one_block(from_dense([[1]]))
        p = one_block(from_dense([[1, 1], [0, 1]]),
                      inv=from_dense([[1, -1], [0, 1]]))
        ok, wit = cond_leq(p, q, PF2)
        assert not ok and any("outside the block form" in w for w in wit)

    def test_dropped_index_fails(self):
        q = one_block(from_dense([[1]]), (0,))
        p = one_block(from_dense([[1]]))
        ok, wit = cond_leq(p, q, PF2)
        assert not ok and any("(iii)" in w for w in wit)

    def test_interpolation_failure_reports_coordinate(self):
        q = one_block(EMPTY, (0,))
        p = one_block(from_dense([[1]]), (0,))
        # the identity block almost never maps f_0 onto g_0 exactly
        f, g = PF1.f(0), PF1.g(0)
        expect_ok = f.value(0) == g.value(0)
        ok, wit = cond_leq(p, q, PF1)
        assert ok == expect_ok
        if not ok:
            assert any("(iv)" in w for w in wit)


class TestAmalgamate:
    def test_distinct_stems_rejected(self):
        p = one_block(from_dense([[1]]))
        q = one_block(from_dense([[2]]),
                      inv=from_dense([["1/2"]]))
        with pytest.raises(ParameterError):
            amalgamate(p, q, 0, PF2, CFG)

    def test_trivial_case_returns_p(self):
        p = one_block(RMatrix.identity(0, 2))
        assert amalgamate(p, p, 0, PF2, CFG) is p

    def test_single_index_amalgamation_verified(self):
        p = Condition.trivial()
        q = one_block(EMPTY, (0,))
        r = amalgamate(p, q, 0, PF1, CFG)
        assert validate_condition(r, PF1, CFG) == []
        for base in (p, q):
            ok, wit = cond_leq(r, base, PF1)
            assert ok, wit

    def test_two_index_amalgamation(self):
        p = Condition.trivial()
        q = one_block(EMPTY, (0, 1))
        r = amalgamate(p, q, 8, PF2, CFG)
        assert r.n >= 8
        assert validate_condition(r, PF2, CFG) == []
        ok, wit = cond_leq(r, q, PF2)
        assert ok, wit

    def test_same_stem_pairs_are_compatible(self):
        """Two valid conditions over the same stem that commit different
        indices admit a common extension (sigma-linked shape)."""
        stem = dense_hit_D(Condition.trivial(), 16, PF4, CFG)
        p = Condition(stem.n, stem.m, (0,), stem.cuts, stem.inv)
        q = Condition(stem.n, stem.m, (1, 2), stem.cuts, stem.inv)
        r = amalgamate(p, q, stem.n, PF4, CFG)
        assert set(r.a) >= {0, 1, 2}
        assert validate_condition(r, PF4, CFG) == []
        for base in (p, q):
            ok, wit = cond_leq(r, base, PF4)
            assert ok, wit

    def test_stage_rejected_on_clause_c(self):
        # the spiked tails' span has section norm 3 at stage 4, the first
        # stage wide enough for three indices (c1 = 2), so the block check
        # rejects that candidate and the search goes on to stage 8
        families = spiked_families()
        config = RunConfig(c1=2, horizon=8)
        p = Condition(0, EMPTY, (0, 1), (0,), EMPTY)
        q = Condition(0, EMPTY, (2,), (0,), EMPTY)
        assert pi_section_norm(check_pi_injective(families.fs), 4) == 3
        r = amalgamate(p, q, 0, families, config)
        assert r.n == 8
        assert validate_condition(r, families, config) == []


class TestCarriedProof:
    """A condition amalgamate returns carries the proof of its validity
    for the families (by identity) and c2 it was given; a stem that
    carries it is not validated again."""

    @staticmethod
    def amalgamated():
        p = Condition.trivial()
        return amalgamate(p, Condition(0, p.m, (0, 1), p.cuts, p.inv), 8,
                          PF2, CFG)

    @staticmethod
    def count_validations(monkeypatch):
        seen = []

        def counted(p, families, config):
            seen.append(p)
            return validate_condition(p, families, config)
        monkeypatch.setattr(forcing, "validate_condition", counted)
        return seen

    def test_run_validates_only_the_trivial_condition(self, monkeypatch):
        seen = self.count_validations(monkeypatch)
        run = run_generic(PF8, config=CFG)
        assert run.failure is None and len(run.stages) > 2
        assert seen == [Condition.trivial()]

    def test_proof_is_bound_to_families_and_c2(self, monkeypatch):
        r = self.amalgamated()
        seen = self.count_validations(monkeypatch)
        assert amalgamate(r, r, 0, PF2, CFG) is r and seen == []
        assert amalgamate(r, r, 0, paired(2), CFG) is r and seen == [r]
        low = RunConfig(rho=2, c2=2, horizon=64)  # r's block has norm 3
        with pytest.raises(ParameterError, match="invalid input condition"
                           ".*matrix norm 3 exceeds c2 = 2"):
            amalgamate(r, r, 0, PF2, low)
        assert seen == [r, r]

    def test_families_prove_pi_injectivity_once(self, monkeypatch):
        # PairedFamilies ranks the F- and G-rows once each; amalgamate and
        # verify_run take subspans of those proofs and rank nothing
        ranks = []

        def counted(rows):
            ranks.append(len(rows))
            return rank(rows)
        monkeypatch.setattr(tails, "rank", counted)
        families = paired(4)
        assert len(ranks) == 2
        run = run_generic(families, config=replace(CFG, horizon=16))
        assert run.failure is None and len(run.stages) > 2
        assert verify_run(run, families)["failures"] == []
        assert len(ranks) == 2

    def test_subspans_are_built_once_per_index_tuple(self, monkeypatch):
        # spans(a) keeps the subspans of each tuple of family positions,
        # so one forge builds a span's classes once per distinct tuple
        families = paired(4)
        assert families.spans((2, 0)) is families.spans([2, 99, 0])
        assert families.spans((0, 2)) != families.spans((2, 0))
        assert families.spans(()) == families.spans((99,)) == ()
        built, calls = [], []
        classes = tails.Span.classes

        def counted(span):
            built.append((span.tails, span.m, span.p))
            return classes.func(span)
        prop = cached_property(counted)
        prop.__set_name__(tails.Span, "classes")
        monkeypatch.setattr(tails.Span, "classes", prop)
        spans = PairedFamilies.spans

        def counted_spans(self, a):
            calls.append(tuple(a))
            return spans(self, a)
        monkeypatch.setattr(PairedFamilies, "spans", counted_spans)
        run = run_generic(families, config=replace(CFG, horizon=16))
        assert run.failure is None and len(run.stages) > 2
        assert built and len(set(built)) == len(built)
        assert len(calls) > len(set(calls))

    def test_rebuilt_condition_is_validated_again(self):
        r = self.amalgamated()
        corrupt = RMatrix.identity(0, r.n)  # r.m is not the identity
        for bad in (replace(r, inv=corrupt),
                    Condition(r.n, r.m, r.a, r.cuts, corrupt)):
            with pytest.raises(ParameterError, match="invalid input condition"
                               ".*carried inverse fails"):
                amalgamate(bad, bad, 0, PF2, CFG)


class TestDenseHits:
    def test_hit_d_reaches_stage(self):
        p = dense_hit_D(Condition.trivial(), 16, PF2, CFG)
        assert p.n >= 16
        assert validate_condition(p, PF2, CFG) == []

    def test_hit_d_noop_when_past(self):
        p = one_block(RMatrix.identity(0, 4))
        assert dense_hit_D(p, 3, PF2, CFG) is p

    def test_hit_e_commits_index(self):
        p = dense_hit_E(Condition.trivial(), 1, PF2, CFG)
        assert 1 in p.a
        assert validate_condition(p, PF2, CFG) == []

    def test_hit_e_noop_when_present(self):
        p = dense_hit_E(Condition.trivial(), 0, PF1, CFG)
        assert dense_hit_E(p, 0, PF1, CFG) is p

    def test_hit_e_unknown_index(self):
        with pytest.raises(ParameterError):
            dense_hit_E(Condition.trivial(), 99, PF1, CFG)


class TestGenericRun:
    run = run_generic(PF2, config=CFG)

    def test_schedule_covers_everything(self):
        sched = default_schedule(PF2, 64)
        assert {("E", 0), ("E", 1)} <= set(sched)
        assert sched[-1] == ("D", 64)

    def test_run_completes(self):
        assert self.run.failure is None
        assert self.run.stages[-1][0] >= 64
        assert self.run.stages[-1][1] == (0, 1)

    def test_chain_strictly_grows(self):
        stages = [n for n, _ in self.run.stages]
        assert stages == sorted(stages)

    def test_verify_clean(self):
        rep = verify_run(self.run, PF2)
        assert rep["failures"] == []
        for info in rep["details"]["indices"].values():
            assert info["symbolic_tail"] is False

    def test_verify_catches_corrupted_entry(self):
        m = self.run.m
        rows = {}
        for i, j, v in m.items():
            rows.setdefault(i, {})[j] = v
        rows.setdefault(0, {})[0] = rows.get(0, {}).get(0, Fraction(0)) + 1
        broken = replace(self.run, m=RMatrix(*m.window, rows))
        rep = verify_run(broken, PF2)
        assert rep["failures"]

    def test_verify_catches_missing_index(self):
        stages = tuple((n, tuple(set(a) - {1})) for n, a in self.run.stages)
        partial = replace(self.run, stages=stages)
        rep = verify_run(partial, PF2)
        assert any("never committed" in f for f in rep["failures"])

    def test_verify_flags_short_run(self):
        short = replace(self.run, config=replace(CFG, horizon=4096))
        rep = verify_run(short, PF2)
        assert ("final stage %d below the horizon 4096" % self.run.stages[-1][0]
                in rep["failures"])

    def test_json_roundtrip_and_determinism(self):
        again = run_generic(PF2, config=CFG)
        a = canonical_dumps(self.run.to_json_obj())
        b = canonical_dumps(again.to_json_obj())
        assert a == b
        back = GenericRun.from_json_obj(self.run.to_json_obj())
        assert canonical_dumps(back.to_json_obj()) == a
        assert verify_run(back, PF2)["failures"] == []

    def test_symbolic_tail_for_identical_families(self):
        sets = [CertSet.ap(1, 4), CertSet.ap(2, 4)]
        pf = paired_from_certsets(sets, sets)
        run = run_generic(pf, config=replace(CFG, horizon=16))
        rep = verify_run(run, pf)
        assert rep["failures"] == []
        assert all(i["symbolic_tail"] for i in rep["details"]["indices"].values())


STEM16 = dense_hit_D(Condition.trivial(), 16, PF4, CFG)


@settings(max_examples=15, deadline=None)
@given(st.sets(st.integers(0, 3), min_size=1),
       st.sets(st.integers(0, 3), min_size=1))
def test_same_stem_commitments_always_amalgamate(aa, bb):
    p = Condition(STEM16.n, STEM16.m, tuple(aa), STEM16.cuts, STEM16.inv)
    q = Condition(STEM16.n, STEM16.m, tuple(bb), STEM16.cuts, STEM16.inv)
    r = amalgamate(p, q, STEM16.n, PF4, CFG)
    assert set(r.a) >= aa | bb
    assert validate_condition(r, PF4, CFG) == []
