"""The repository's pytest configuration reports a failing property test.

The configuration turns every DeprecationWarning into an error.  When a
hypothesis test fails, hypothesis may import libcst to print a patch for
the failing example, and libcst's import of `mypy_extensions.TypedDict`
warns; unless that one warning is ignored, pytest stops the session with
INTERNALERROR and hides the falsifying example.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 3
'''


def test_failing_property_test_reports_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = result.stdout + result.stderr
    assert result.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
