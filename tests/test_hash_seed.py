"""Output bytes do not depend on the hash seed.

Criterion 9 compares two runs in one process, so both runs share one
hash seed, and a `set` or `dict` order that leaked into an output would
still pass it.  Here each command runs as a whole process under
PYTHONHASHSEED 0 and 12345, and every byte it writes must agree: the
criterion-7 forge (f = branch 8 depth 3, g = progression 8) at a small
horizon, and two certify commands.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SEEDS = ("0", "12345")


def outputs(argv, seed, cwd):
    """(stdout, stderr, exit code, bytes of every file written) of
    `qforge argv` run in cwd under the hash seed."""
    before = set(os.listdir(cwd))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "qforge.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, timeout=60)
    files = {name: (cwd / name).read_bytes()
             for name in sorted(set(os.listdir(cwd)) - before)}
    for name in files:
        (cwd / name).unlink()
    return done.stdout, done.stderr, done.returncode, files


@pytest.mark.parametrize("argv", [
    ["forge-matrix", "--families", "pair.json", "--rho", "4", "--c2", "64",
     "--horizon", "64", "--out", "run.json"],
    ["build-adf", "--kind", "luzin", "--count", "64"],
    ["build-coherent", "--cells", "8", "--blocks", "2", "--cap", "w*2"],
], ids=["forge-criterion-7", "build-adf-luzin", "build-coherent"])
def test_bytes_agree_across_hash_seeds(tmp_path, argv):
    (tmp_path / "pair.json").write_text(json.dumps({
        "f": {"kind": "branch", "count": 8, "depth": 3},
        "g": {"kind": "progression", "count": 8}}))
    first, second = (outputs(argv, seed, tmp_path) for seed in SEEDS)
    stdout, stderr, code, files = first
    assert code == 0, stderr
    assert stdout and files == ({"run.json": stdout} if "--out" in argv else {})
    assert first == second
