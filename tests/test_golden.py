"""The canonical criterion-7 output, pinned across versions.

Criterion 9 checks that two runs of one version give the same bytes.
This test checks that every version gives the bytes recorded here, so a
change that claims to keep the output can be held to it.
"""

import hashlib

from test_acceptance import forge_and_verify

FORGE_SHA256 = "02cebeda57bcf64a6ecca954bfc3e8d7b246a06940659b057112bf72421e4ef2"


def test_forge_and_verify_bytes_are_pinned():
    report, text = forge_and_verify()
    assert report["failures"] == []
    assert hashlib.sha256(text.encode()).hexdigest() == FORGE_SHA256
