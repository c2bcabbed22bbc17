"""The canonical criterion-7 output, pinned across versions.

Criterion 9 checks that two runs of one version give the same bytes.
This test checks that every version gives the bytes recorded here, so a
change that claims to keep the output can be held to it.  The extension
pipeline's matrices and its norm report are pinned the same way.
"""

import hashlib
import json
import random
from fractions import Fraction

from qforge.cli import _plain
from qforge.config import RunConfig
from qforge.forcing import GenericRun, run_generic
from qforge.geometry import extend_isomorphism
from qforge.jsonio import canonical_dumps
from test_acceptance import (
    SEED,
    _extension_instance,
    _forge_families,
    build_extension_suite,
    forge_and_verify,
)

FORGE_SHA256 = "f7dad6c6588f85079fc9674307df397c2c7f01946ae1c022e8892c7017a27c8f"
EXTENSION_SUITE_SHA256 = (
    "0eb174b246b65624b79eaef277fd640f5e6decad7de4a06cc773ff7ec9048812")
EXTENSION_REPORT_SHA256 = (
    "8390926088709ff28b2ce9941e6d75196e2e41113465c0b5f4fab4ad2fbb3fe2")
# the forged matrix and the verify report's details, which a change of
# the run-file format must keep
FORGE_MATRIX_SHA256 = (
    "3ee06240b68fa735ee2e435a6d94edc935ea8e600d9b3e8a84734386443bf1f3")
FORGE_DETAILS_SHA256 = (
    "1203622d8a59bfbde1f782f7cc8c8b1adba8cda84d86bc88a4c801dba9546450")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_forge_and_verify_bytes_are_pinned():
    report, text = forge_and_verify()
    assert report["failures"] == []
    assert hashlib.sha256(text.encode()).hexdigest() == FORGE_SHA256


def test_forge_content_is_pinned():
    report, text = forge_and_verify()
    assert sha256(canonical_dumps(json.loads(text)["matrix"])) == (
        FORGE_MATRIX_SHA256)
    assert sha256(canonical_dumps(report["details"])) == FORGE_DETAILS_SHA256
    config = RunConfig(rho=Fraction(4), c2=Fraction(64), horizon=512)
    run = run_generic(_forge_families(), config=config)
    back = GenericRun.from_json_obj(run.to_json_obj())
    assert len(back.chain) == len(run.chain)
    for got, want in zip(back.chain, run.chain):
        assert (got.n, got.a, got.cuts) == (want.n, want.a, want.cuts)
        assert got.m.equals(want.m)
        assert got.inv.equals(want.inv)


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
