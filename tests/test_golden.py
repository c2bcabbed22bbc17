"""The canonical criterion-7 output, pinned across versions.

Criterion 9 checks that two runs of one version give the same bytes.
This test checks that every version gives the bytes recorded here, so a
change that claims to keep the output can be held to it.  The extension
pipeline's matrices and its norm report are pinned the same way, and so
are the outputs of the six certify commands at the benchmark's sizes.
"""

import hashlib
import json
import random
from fractions import Fraction

from qforge.cli import main
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

FORGE_SHA256 = "d7fc1933b06e807733cfb9185d3ee2780f5806e0a6cebc1264b5586ce3136783"
EXTENSION_SUITE_SHA256 = (
    "0eb174b246b65624b79eaef277fd640f5e6decad7de4a06cc773ff7ec9048812")
EXTENSION_REPORT_SHA256 = (
    "8390926088709ff28b2ce9941e6d75196e2e41113465c0b5f4fab4ad2fbb3fe2")
# the forged matrix and the verify report's details, which a change of
# the run-file format must keep
FORGE_MATRIX_SHA256 = (
    "ceb92d560b65ad92f1295c93879270bc1004aa6e24b51e7a77c46d66577c42e2")
FORGE_DETAILS_SHA256 = (
    "267e155a11a7bdb2816ad7fb5b7036bd3b63e6115c96aa146570345d6b42ec54")

# build-adf, check-separation, mad-census and build-coherent at the sizes
# of the certify benchmark workload, whose default seed 20260828 draws the
# 4 + 4 branch sets that check-separation splits
CERTIFY_SEED = 20260828
CERTIFY_SHA256 = {
    "build-adf progression":
        "71c34f049ec93d2f7acb5a2db14e7e9066cf897831f081585797b706db1eefc3",
    "build-adf branch":
        "2593d22bd8b36ce13a73d017c3d9bbd8b57eda282f2bd1f5841fdbfc4944e11f",
    "build-adf luzin":
        "7cb218c97d3e01b6751e7012d6e650c5dad4839c019b15fc9ee533d841cbefac",
    "check-separation":
        "55da3a5c7230b980867f9ad73511b140eb20fbda44aa2909d69af2e3aeea29e0",
    "mad-census":
        "73be39304d51b870e7a3940a540f66f2326b1647573036360aabce0872363305",
    "build-coherent":
        "eef66fe7c5e3d4bafe064b70d6f78b4ad1948afe15808f0824e14241947dc36b",
}

# build-coherent past the certify size in valuation: stages w*q + r for
# every r < 12, so each limit chain is checked through step 11
COHERENT_HIGH_VALUATION_SHA256 = (
    "fa34ade0fd72522b5d2a6f9d76c6c66ce70fb7b526413a48516cfa30bb37755d")


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
    assert back.stages == run.stages
    assert back.m.equals(run.m)
    assert len(back.invs) == len(run.invs)
    assert all(b.equals(i) for b, i in zip(back.invs, run.invs))


def test_extension_suite_bytes_are_pinned():
    failures, text = build_extension_suite(SEED + 2)
    assert failures == []
    assert sha256(text) == EXTENSION_SUITE_SHA256


def test_extension_reports_are_pinned():
    rng = random.Random(SEED + 2)
    cfg = RunConfig(rho=Fraction(4), c2=Fraction(64))
    reports = [extend_isomorphism(_extension_instance(rng), config=cfg).report
               for _ in range(50)]
    assert sha256(canonical_dumps(reports)) == EXTENSION_REPORT_SHA256


def test_certify_outputs_are_pinned(capsys, tmp_path):
    picked = random.Random(CERTIFY_SEED).sample(range(128), 8)
    inside = [str(i) for i in sorted(picked[:4])]
    outside = [str(i) for i in sorted(picked[4:])]
    branch = str(tmp_path / "branch.json")
    commands = {
        "build-adf progression": ["build-adf", "--kind", "progression",
                                  "--count", "17"],
        "build-adf branch": ["build-adf", "--kind", "branch", "--count", "128",
                             "--depth", "7", "--out", branch],
        "build-adf luzin": ["build-adf", "--kind", "luzin", "--count", "128"],
        "check-separation": ["check-separation", "--family", branch,
                             "--inside", *inside, "--outside", *outside],
        "mad-census": ["mad-census", "--family", branch],
        "build-coherent": ["build-coherent", "--cells", "64", "--blocks", "4",
                           "--cap", "w*4"],
    }
    digests = {}
    for name, argv in commands.items():
        assert main(argv) == 0, name
        digests[name] = sha256(capsys.readouterr().out)
    assert digests == CERTIFY_SHA256


def test_coherent_high_valuations_are_pinned(capsys):
    assert main(["build-coherent", "--cells", "3", "--blocks", "2",
                 "--sample-offsets", "12"]) == 0
    assert sha256(capsys.readouterr().out) == COHERENT_HIGH_VALUATION_SHA256
