"""The benchmark's own tests; run with `python3 -m pytest perfbench`.

They use --smoke sizes (the forge_demo pair at K=4 and H=128, five
amalgamations, progression count 8), so the whole file takes well under
a minute.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import tail  # noqa: E402
from workloads import (  # noqa: E402
    CRITERION_8_SEED,
    HELD_OUT_SEED,
    _criterion8_draw,
    amalgamation_draws,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds",
                 "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_traced_call_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = bench(ROOT, "--workload", "certify", "--seconds", "1",
                     "--trace", "1", "--smoke")
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if k.endswith((".calls", ".failed", ".bytes"))})
    assert counts[0] == counts[1]
    assert counts[0]["adf.certset.CertSet.almost_disjoint.calls"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "forge", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_default_seed_reproduces_criterion_8_draws():
    rng = random.Random(CRITERION_8_SEED)
    assert amalgamation_draws(CRITERION_8_SEED, 50) == [
        _criterion8_draw(rng, 8) for _ in range(50)]


def test_other_seeds_keep_the_unions_and_change_the_sides():
    ref = amalgamation_draws(CRITERION_8_SEED, 50)
    other = amalgamation_draws(HELD_OUT_SEED, 50)
    assert other != ref
    for (a, b), (c, d) in zip(ref, other):
        assert set(a) | set(b) == set(c) | set(d)
        assert (len(a), len(b)) == (len(c), len(d))
        assert (set(b) <= set(a)) == (set(d) <= set(c))


def test_tail_has_ten_samples_beyond_it():
    assert tail(list(range(50))) == (39, 80)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100)
