"""The demo scripts run end to end: each exits 0, and the forge demo's
verifier reports no failures and writes its run file to the temporary
directory."""

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    return subprocess.run([sys.executable, str(SCRIPTS / name)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_forge_demo(tmp_path):
    done = run_script("forge_demo.py", tmp_path)
    assert done.returncode == 0, done.stderr
    assert "verifier failures : none" in done.stdout
    assert (tmp_path / "qforge_demo_run.json").is_file()


def test_geometry_demo(tmp_path):
    done = run_script("geometry_demo.py", tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout
