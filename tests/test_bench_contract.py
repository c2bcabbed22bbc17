"""The benchmark's tracing contract: every name that
`perfbench/tracing.py` wraps must exist in qforge and be callable, so a
deletion that would break `perfbench/run.py --trace 1` fails here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, path",
                         [(mod, path) for mod, path, _, _ in _targets()])
def test_target_resolves_to_a_callable(module_name, path):
    obj = importlib.import_module("qforge." + module_name)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
