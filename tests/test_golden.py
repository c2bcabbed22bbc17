"""The canonical criterion-7 output, pinned across versions.

Criterion 9 checks that two runs of one version give the same bytes.
This test checks that every version gives the bytes recorded here, so a
change that claims to keep the output can be held to it.  The extension
pipeline's matrices and its norm report are pinned the same way.
"""

import hashlib
import random
from fractions import Fraction

from qforge.cli import _plain
from qforge.config import RunConfig
from qforge.geometry import extend_isomorphism
from qforge.jsonio import canonical_dumps
from test_acceptance import (
    SEED,
    _extension_instance,
    build_extension_suite,
    forge_and_verify,
)

FORGE_SHA256 = "02cebeda57bcf64a6ecca954bfc3e8d7b246a06940659b057112bf72421e4ef2"
EXTENSION_SUITE_SHA256 = (
    "0eb174b246b65624b79eaef277fd640f5e6decad7de4a06cc773ff7ec9048812")
EXTENSION_REPORT_SHA256 = (
    "8390926088709ff28b2ce9941e6d75196e2e41113465c0b5f4fab4ad2fbb3fe2")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_forge_and_verify_bytes_are_pinned():
    report, text = forge_and_verify()
    assert report["failures"] == []
    assert hashlib.sha256(text.encode()).hexdigest() == FORGE_SHA256


def test_extension_suite_bytes_are_pinned():
    failures, text = build_extension_suite(SEED + 2)
    assert failures == []
    assert sha256(text) == EXTENSION_SUITE_SHA256


def test_extension_reports_are_pinned():
    rng = random.Random(SEED + 2)
    cfg = RunConfig(rho=Fraction(4), c2=Fraction(64))
    reports = [_plain(extend_isomorphism(_extension_instance(rng),
                                         config=cfg).report)
               for _ in range(50)]
    assert sha256(canonical_dumps(reports)) == EXTENSION_REPORT_SHA256
