"""The run file: what it stores, and what verify-run makes of a file that
was tampered with.

A run file stores the forged matrix once.  Each chain condition carries
its stage, its committed indices and the inverse of the block it added;
verify-run rebuilds the conditions from these, derives every entry stage
from the chain, checks each block with the indices committed there and
replays the hit log against the schedule to the horizon of the config.
"""

import copy
import json
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from dense_oracles import rmatrix_add, rmatrix_scale
from qforge import forcing
from qforge.adf.families import FamilyGenerator, make_family
from qforge.cli import main
from qforge.config import RunConfig
from qforge.forcing import (
    GenericRun,
    PairedFamilies,
    paired_from_certsets,
    run_generic,
    verify_run,
)
from qforge.jsonio import rmatrix_to_json, write_json
from qforge.linalg import RMatrix
from qforge.tails import TailVector


@pytest.fixture(scope="module")
def run_obj():
    f = make_family(FamilyGenerator("branch", count=2, depth=3))
    g = make_family(FamilyGenerator("progression", count=2))
    families = paired_from_certsets(f.sets, g.sets)
    config = RunConfig(horizon=16)
    run = run_generic(families, config=config)
    assert verify_run(run, families, config)["failures"] == []
    obj = run.to_json_obj()
    obj["families"] = families.to_json_obj()
    return obj


def verify(capsys, tmp_path, obj, write=write_json):
    path = tmp_path / "run.json"
    write(path, obj)
    code = main(["verify-run", str(path)])
    captured = capsys.readouterr()
    return code, captured


def failures_of(capsys, tmp_path, obj):
    code, captured = verify(capsys, tmp_path, obj)
    assert code == 1
    return json.loads(captured.out)["failures"]


def test_chain_holds_stages_commitments_and_block_inverses(run_obj):
    lo = 0
    for c in run_obj["chain"]:
        assert set(c) == {"n", "a", "inv"}
        inv = c["inv"]
        assert (inv["row_lo"], inv["row_hi"], inv["col_lo"], inv["col_hi"]) \
            == (lo, c["n"], lo, c["n"])
        lo = c["n"]
    assert run_obj["chain"][0]["inv"]["entries"] == []
    assert run_obj["matrix"]["row_hi"] == lo
    assert set(run_obj) == {"chain", "hit_log", "config", "failure",
                            "matrix", "families"}


def test_every_written_key_is_read(capsys, tmp_path, run_obj):
    # a key that verify-run ignores or derives again is a fact stored twice
    for key in GenericRun.from_json_obj(run_obj).to_json_obj():
        obj = copy.deepcopy(run_obj)
        del obj[key]
        assert repr(key) in malformed(capsys, tmp_path, obj)


def test_identity_forgery_with_nothing_committed(capsys, tmp_path, run_obj):
    # the identity matrix and no commitments, so that no coordinate is
    # left to check
    obj = copy.deepcopy(run_obj)
    n = obj["chain"][-1]["n"]
    obj["matrix"] = rmatrix_to_json(RMatrix.identity(0, n))
    lo = 0
    for c in obj["chain"]:
        c["inv"] = rmatrix_to_json(RMatrix.identity(lo, c["n"]))
        c["a"] = []
        lo = c["n"]
    failures = failures_of(capsys, tmp_path, obj)
    for xi in obj["families"]["indices"]:
        assert "index %s never committed" % xi in failures


def test_commitment_moved_later_in_the_chain(capsys, tmp_path, run_obj):
    # the chain now commits index 1 one condition later than the hit log says
    obj = copy.deepcopy(run_obj)
    first = next(k for k, c in enumerate(obj["chain"]) if 1 in c["a"])
    obj["chain"][first]["a"].remove(1)
    failures = failures_of(capsys, tmp_path, obj)
    assert "hit 1: chain condition %d misses (E, 1)" % first in failures


def test_matrix_entry_outside_the_blocks(capsys, tmp_path, run_obj):
    obj = copy.deepcopy(run_obj)
    obj["matrix"]["entries"].append([0, obj["chain"][-1]["n"] - 1, "1"])
    obj["matrix"]["entries"].sort()
    failures = failures_of(capsys, tmp_path, obj)
    assert any("outside the block form" in f for f in failures)


def test_sign_flip_past_the_horizon(capsys, tmp_path, run_obj):
    # stages 0, 4, 12, 18 and horizon 16: flipping row 17 of the matrix and
    # column 17 of the last block inverse keeps M * inv = I and every norm,
    # but the last block no longer maps f_0 onto g_0 at coordinate 17
    obj = copy.deepcopy(run_obj)
    assert [c["n"] for c in obj["chain"]] == [0, 4, 12, 18]
    assert obj["config"]["horizon"] == 16
    for entries, k in ((obj["matrix"]["entries"], 0),
                       (obj["chain"][-1]["inv"]["entries"], 1)):
        for e in entries:
            if e[k] == 17:
                e[2] = str(-Fraction(e[2]))
    failures = failures_of(capsys, tmp_path, obj)
    assert any("(iv) xi = 0 fails at coordinate 17" in f for f in failures)


def test_hit_log_skips_a_scheduled_set(capsys, tmp_path, run_obj):
    obj = copy.deepcopy(run_obj)
    obj["hit_log"].remove(["D", 8, 2])
    failures = failures_of(capsys, tmp_path, obj)
    assert any(f.startswith("hit 4:") for f in failures)


def spiked_families():
    """Three tails, equal on both sides, whose span has section norm 3
    below stage 6: from 6 on tail k is the indicator of k + 3N, and at
    coordinate 5 the tails read 1, -1, -1."""
    tails = tuple(
        TailVector(tuple(int(i % 3 == k) for i in range(5)) + (spike,),
                   tuple(int(r == k) for r in range(3)))
        for k, spike in enumerate((1, -1, -1)))
    return PairedFamilies((0, 1, 2), tails, tails)


def identity_run(stages):
    """A run whose matrix is the identity, committing 0, 1, 2 at once."""
    families = spiked_families()
    lows = [0] + stages[:-1]
    return {
        "chain": [{"n": n, "a": [0, 1, 2] if n else [],
                   "inv": rmatrix_to_json(RMatrix.identity(lo, n))}
                  for lo, n in zip(lows, stages)],
        "hit_log": [["E", 0, 1], ["E", 1, 1], ["E", 2, 1], ["D", 2, 1],
                    ["D", 4, 1], ["D", 8, len(stages) - 1]],
        "config": RunConfig(horizon=8).to_json_obj(),
        "failure": None,
        "matrix": rmatrix_to_json(RMatrix.identity(0, stages[-1])),
        "families": families.to_json_obj(),
    }


def test_member_with_section_norm_above_2(capsys, tmp_path):
    code, captured = verify(capsys, tmp_path, identity_run([0, 8]))
    assert code == 0, captured.out
    # a member at stage 4 commits the indices where the section norm is 3
    failures = failures_of(capsys, tmp_path, identity_run([0, 4, 8]))
    assert failures == ["block [0, 4): (c) F-section norm 3 exceeds 2",
                        "block [0, 4): (c) G-section norm 3 exceeds 2"]


def malformed(capsys, tmp_path, obj, write=write_json):
    code, captured = verify(capsys, tmp_path, obj, write)
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: malformed run file")
    assert captured.err.count("\n") == 1
    return captured.err


def test_matrix_window_must_be_the_final_stage(capsys, tmp_path, run_obj):
    obj = copy.deepcopy(run_obj)
    obj["matrix"]["row_hi"] += 1
    assert "matrix window" in malformed(capsys, tmp_path, obj)


def test_block_inverse_on_the_wrong_window(capsys, tmp_path, run_obj):
    obj = copy.deepcopy(run_obj)
    obj["chain"][1]["inv"] = rmatrix_to_json(
        RMatrix.identity(0, obj["chain"][2]["n"]))
    malformed(capsys, tmp_path, obj)


def test_chain_must_start_at_stage_0(capsys, tmp_path, run_obj):
    obj = copy.deepcopy(run_obj)
    obj["chain"] = obj["chain"][1:]
    malformed(capsys, tmp_path, obj)


@pytest.mark.parametrize("matrices", ["as written", "unparseable"])
@pytest.mark.parametrize("edit", ["repeated", "falling"])
def test_chain_stages_must_rise(capsys, tmp_path, run_obj, edit, matrices):
    # stages 0, 4, 12, 18 become 0, 4, 12, 12, 18 or 0, 12, 4, 18; the
    # file is refused on its stages before any matrix is read, so the
    # same line comes when no matrix of the file parses
    obj = copy.deepcopy(run_obj)
    chain = obj["chain"]
    if edit == "repeated":
        chain.insert(2, copy.deepcopy(chain[2]))
    else:
        chain[1], chain[2] = chain[2], chain[1]
    if matrices == "unparseable":
        obj["matrix"] = "not a matrix"
        for c in chain:
            c["inv"] = "not a matrix"
    assert "stages rise strictly from 0" in malformed(capsys, tmp_path, obj)


def test_matrix_entry_at_a_fractional_index(capsys, tmp_path, run_obj):
    # 0.5 lies inside the window but names no entry
    obj = copy.deepcopy(run_obj)
    obj["matrix"]["entries"].append([0.5, 0, "1000"])
    # a float is not canonical JSON, so the file is written by json
    assert "not an integer" in malformed(
        capsys, tmp_path, obj, lambda path, o: path.write_text(json.dumps(o)))


def test_matrix_entry_listed_twice(capsys, tmp_path, run_obj):
    # the forged value comes first, the true one last
    obj = copy.deepcopy(run_obj)
    entries = obj["matrix"]["entries"]
    i, j, _ = entries[0]
    entries.insert(0, [i, j, "1000"])
    assert "listed twice" in malformed(capsys, tmp_path, obj)


@pytest.mark.parametrize("horizon", ["8", None, [8], 0, 4097, True])
def test_horizon_must_be_a_bounded_integer(capsys, tmp_path, run_obj,
                                           horizon):
    obj = copy.deepcopy(run_obj)
    obj["config"]["horizon"] = horizon
    t0 = time.monotonic()
    assert "horizon" in malformed(capsys, tmp_path, obj)
    assert time.monotonic() - t0 < 1


def test_chain_stage_beyond_any_run(capsys, tmp_path):
    # no run passes horizon + 8 * horizon <= 9 * MAX_HORIZON, so a stage
    # of 10^6 is rejected before its block is checked row by row
    obj = identity_run([0, 8])
    n = 10 ** 6
    empty = rmatrix_to_json(RMatrix(0, n, 0, n))
    obj["chain"][1] = {"n": n, "a": [], "inv": empty}
    obj["matrix"] = empty
    t0 = time.monotonic()
    assert "chain stage" in malformed(capsys, tmp_path, obj)
    assert time.monotonic() - t0 < 1


def test_chain_stage_beyond_its_own_config(capsys, tmp_path):
    # the bound is the file's own horizon + search_cap, 72 at horizon 8:
    # a stage of 100 lies below 9 * MAX_HORIZON but above any run's
    err = malformed(capsys, tmp_path, identity_run([0, 100]))
    assert "chain stage 100 exceeds horizon + search_cap = 72" in err


def test_tails_of_long_coprime_periods(capsys, tmp_path):
    # periods 1021 and 1019: a tail difference would have period 1 040 399,
    # and building it took most of a 6 s forge; the tails are compared by
    # one window of each instead
    def tail(p):
        return TailVector((), (0,) + (1,) * (p - 1)).to_json_obj()
    fam, out = tmp_path / "pf.json", tmp_path / "run.json"
    write_json(fam, {"indices": [0], "f": [tail(1021)], "g": [tail(1019)]})
    t0 = time.monotonic()
    assert main(["forge-matrix", "--families", str(fam), "--horizon", "64",
                 "--out", str(out)]) == 0
    assert time.monotonic() - t0 < 1
    capsys.readouterr()
    t0 = time.monotonic()
    assert main(["verify-run", str(out)]) == 0
    assert time.monotonic() - t0 < 1
    report = json.loads(capsys.readouterr().out)
    assert report["details"]["indices"]["0"]["symbolic_tail"] is False


def test_tails_aligned_past_the_bound_are_not_malformed(capsys, tmp_path,
                                                        run_obj):
    # periods 257 and 263 on one side align on 67 591 > MAX_TAIL: a
    # well-formed file that misses a bound, the same one line from both
    # commands
    def tail(p):
        return TailVector((), (0,) + (1,) * (p - 1)).to_json_obj()
    families = {"indices": [0, 1], "f": [tail(257), tail(263)],
                "g": [tail(257), tail(263)]}
    fam = tmp_path / "pf.json"
    write_json(fam, families)
    assert main(["forge-matrix", "--families", str(fam)]) == 2
    forged = capsys.readouterr()
    obj = copy.deepcopy(run_obj)
    obj["families"] = families
    code, captured = verify(capsys, tmp_path, obj)
    assert code == 2 and captured.out == forged.out == ""
    assert captured.err == forged.err == (
        "error: aligning these tails needs a prefix of 0 and a period of "
        "67591; the bound is 65536\n")


def test_forged_config_horizon(capsys, tmp_path):
    # the run reached stage 65 for horizon 64; its file claims 4096
    fam, out = tmp_path / "pf.json", tmp_path / "run.json"
    write_json(fam, {"f": {"kind": "branch", "count": 4, "depth": 2},
                     "g": {"kind": "progression", "count": 4}})
    assert main(["forge-matrix", "--families", str(fam), "--horizon", "64",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    obj = json.loads(out.read_text())
    assert obj["chain"][-1]["n"] == 65
    obj["config"]["horizon"] = 4096
    code, captured = verify(capsys, tmp_path, obj)
    report = json.loads(captured.out)
    assert code == 1 and report["config"]["horizon"] == 4096
    assert "final stage 65 below the horizon 4096" in report["failures"]


def test_config_keys_of_earlier_versions_are_ignored(capsys, tmp_path,
                                                     run_obj):
    # run files written before c1 and delta left the config hold both
    assert set(run_obj["config"]) == {"rho", "c2", "horizon"}
    code, captured = verify(capsys, tmp_path, run_obj)
    older = copy.deepcopy(run_obj)
    older["config"].update({"c1": "1", "delta": "1/100"})
    assert verify(capsys, tmp_path, older) == (code, captured)
    assert code == 0 and json.loads(captured.out)["failures"] == []


@pytest.fixture(scope="module")
def k4_obj():
    """The K = 4 run (branch 4 depth 2 vs progression 4) at horizon 64."""
    f = make_family(FamilyGenerator("branch", count=4, depth=2))
    g = make_family(FamilyGenerator("progression", count=4))
    families = paired_from_certsets(f.sets, g.sets)
    obj = run_generic(families, config=RunConfig(horizon=64)).to_json_obj()
    obj["families"] = families.to_json_obj()
    return obj


@pytest.mark.parametrize("where, key, value", [
    ("chain", "n", 65.7),
    ("chain", "a", [0.0, 1.0, 2.0, 3.0]),
    ("chain", "a", [0, True, 2, 3]),
    ("families", "indices", [0, 1.9, 2, 3]),
    ("families", "indices", [0, True, 2, 3]),
], ids=["stage-65.7", "indices-0.0-3.0", "index-true", "family-index-1.9",
        "family-index-true"])
def test_float_or_bool_is_refused(capsys, tmp_path, k4_obj, where, key,
                                  value):
    # int() would read 65.7 as 65, 1.9 as 1 and true as 1, and the copy
    # would pass; a float is not canonical JSON, so it is written by json
    obj = copy.deepcopy(k4_obj)
    assert obj["chain"][-1]["n"] == 65
    assert obj["chain"][-1]["a"] == obj["families"]["indices"] == [0, 1, 2, 3]
    (obj["chain"][-1] if where == "chain" else obj[where])[key] = value
    code, captured = verify(capsys, tmp_path, obj,
                            lambda path, o: path.write_text(json.dumps(o)))
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "is not an integer" in captured.err


# amalgamate trusts extend_isomorphism's certificate of a new block's
# algebra and norms; forge-matrix replays every block with verify_run
# before it writes, so a block that breaks that certificate still reaches
# no output unflagged

def forge_with_blocks(monkeypatch, capsys, tmp_path, corrupt):
    real = forcing.extend_isomorphism
    monkeypatch.setattr(forcing, "extend_isomorphism", lambda t, config: (
        corrupt(real(t, config=config), config)))
    fam, out = tmp_path / "pf.json", tmp_path / "run.json"
    write_json(fam, {"f": {"kind": "branch", "count": 2, "depth": 3},
                     "g": {"kind": "progression", "count": 2}})
    code = main(["forge-matrix", "--families", str(fam), "--horizon", "16",
                 "--out", str(out)])
    capsys.readouterr()
    obj = json.loads(out.read_text())
    assert code == 1 and obj["failure"] is None
    return obj["failures"]


def test_forge_replay_catches_a_wrong_carried_inverse(monkeypatch, capsys,
                                                      tmp_path):
    def off_by_one(ext, config):
        lo, hi = ext.w_inv.row_lo, ext.w_inv.row_hi
        return replace(ext, w_inv=rmatrix_add(
            ext.w_inv, RMatrix(lo, hi, lo, hi, {lo: {lo: 1}})))
    failures = forge_with_blocks(monkeypatch, capsys, tmp_path, off_by_one)
    assert any(f.startswith("block [") and "(b) carried inverse fails" in f
               for f in failures)


def test_forge_replay_catches_a_norm_above_c2(monkeypatch, capsys, tmp_path):
    def too_large(ext, config):
        s = (config.c2 + 1) / ext.norm_w  # w w^-1 = I still holds
        return replace(ext, w=rmatrix_scale(ext.w, s), w_inv=rmatrix_scale(ext.w_inv, 1 / s),
                       norm_w=config.c2 + 1, norm_w_inv=ext.norm_w_inv / s)
    failures = forge_with_blocks(monkeypatch, capsys, tmp_path, too_large)
    assert any(f.startswith("block [") and "(b) matrix norm 65 exceeds c2"
               in f for f in failures)
