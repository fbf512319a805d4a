"""Negotiated-security golden study: secure channels, digest-pinned.

The tiny study (``tiny_study.digest.json``) is deliberately None-only,
so nothing in it exercises Sign/SignAndEncrypt negotiation.  This
suite pins the complementary population: every host advertises a
secure endpoint, every deep grab negotiates a secure channel, and the
``negotiated_*`` session fields land in the canonical record bytes —
identically across all four executor backends.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.negotiation import analyze_negotiated_security
from repro.core.golden import (
    run_tiny_secure_study,
    study_digest,
    study_digests,
    tiny_secure_spec,
)

pytestmark = pytest.mark.golden

NEGOTIATED_PATH = Path(__file__).resolve().parent / "negotiated.digest.json"

BACKENDS = [
    pytest.param("thread", 4, id="thread"),
    pytest.param("process", 4, id="process"),
]


@pytest.fixture(scope="module")
def negotiated_digests() -> dict:
    return json.loads(NEGOTIATED_PATH.read_text())


@pytest.fixture(scope="module")
def serial_secure_result():
    return run_tiny_secure_study()


def test_serial_matches_committed_digest(
    serial_secure_result, negotiated_digests
):
    per_sweep = study_digests(serial_secure_result)
    assert per_sweep == negotiated_digests["per_sweep"]
    assert study_digest(serial_secure_result) == negotiated_digests["digest"]


@pytest.mark.parametrize("backend,workers", BACKENDS)
def test_backend_matches_serial_reference(
    backend, workers, serial_secure_result, negotiated_digests
):
    result = run_tiny_secure_study(backend, workers)
    per_sweep = study_digests(result)
    assert per_sweep == study_digests(serial_secure_result), (
        f"{backend} backend diverged from the serial reference"
    )
    assert per_sweep == negotiated_digests["per_sweep"]
    assert study_digest(result) == negotiated_digests["digest"]


def test_every_grab_negotiated_or_failed_truthfully(serial_secure_result):
    """Each server either completed the best advertised pair or
    recorded why it could not — no silent gaps."""
    servers = serial_secure_result.final_snapshot.servers()
    assert servers
    for record in servers:
        session = record.session
        assert session is not None
        negotiated = session.negotiated_policy_uri is not None
        failed = session.negotiation_error is not None
        assert negotiated != failed, (
            f"host {record.ip}: negotiation neither completed nor failed"
        )
        if negotiated:
            assert session.negotiated_mode in (2, 3)


def test_statistics_match_spec_ground_truth(serial_secure_result):
    """The registry analysis reproduces the spec's expectations for
    every host observed in the final sweep (churned-away hosts are
    absent from the snapshot, so counts are compared per-pair)."""
    stats = analyze_negotiated_security(
        serial_secure_result.final_snapshot.servers()
    )
    expected = tiny_secure_spec().negotiation_expectations()
    assert stats.none_only == 0
    assert stats.unattempted == 0
    assert stats.attempted == stats.total_servers
    # Every completed negotiation landed on the best advertised pair.
    assert stats.matched_best_advertised == stats.negotiated
    # Failures are exactly the strict-server rejections.
    assert set(stats.errors) == {"BadSecurityChecksFailed"}
    assert stats.failed <= expected["failed"]
    # Observed pairs are a subset of the spec's expected pairs.
    expected_policies = {
        label for (label, _mode) in expected["by_pair"]
    }
    short = {"Basic128Rsa15": "D1", "Basic256": "D2",
             "Aes128_Sha256_RsaOaep": "S1", "Basic256Sha256": "S2",
             "Aes256_Sha256_RsaPss": "S3"}
    assert set(stats.by_policy) <= {short[p] for p in expected_policies}
    assert set(stats.by_mode) <= {"S", "S&E"}
