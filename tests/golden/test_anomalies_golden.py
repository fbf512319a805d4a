"""Hostile device-zoo golden study: every pathology, digest-pinned.

The tiny and negotiated studies scan well-behaved populations; this
suite pins the complement — a population where every registered
personality is planted at a known count.  The digests prove the
hostile transports (stalls, drops, garbled frames) behave identically
across all four executor backends, and the ground-truth tests prove
the ``anomalies`` analysis detects exactly the planted pathologies:
no misses, no false positives on the control rows.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.anomalies import analyze_anomalies
from repro.core.golden import (
    run_tiny_hostile_study,
    study_digest,
    study_digests,
    tiny_hostile_spec,
)
from repro.deployments.personalities import PERSONALITIES

pytestmark = pytest.mark.golden

ANOMALIES_PATH = Path(__file__).resolve().parent / "anomalies.digest.json"

BACKENDS = [
    pytest.param("thread", 4, id="thread"),
    pytest.param("process", 4, id="process"),
]

#: Noise hosts the golden study config plants (junk TCP responders on
#: 4840) — they count as junk talkers alongside the junk-banner rows.
NOISE_HOSTS = 6


@pytest.fixture(scope="module")
def anomalies_digests() -> dict:
    return json.loads(ANOMALIES_PATH.read_text())


@pytest.fixture(scope="module")
def serial_hostile_result():
    return run_tiny_hostile_study()


@pytest.fixture(scope="module")
def anomaly_stats(serial_hostile_result):
    return analyze_anomalies(
        serial_hostile_result.snapshots, tiny_hostile_spec()
    )


def test_serial_matches_committed_digest(
    serial_hostile_result, anomalies_digests
):
    per_sweep = study_digests(serial_hostile_result)
    assert per_sweep == anomalies_digests["per_sweep"]
    assert study_digest(serial_hostile_result) == anomalies_digests["digest"]


@pytest.mark.parametrize("backend,workers", BACKENDS)
def test_backend_matches_serial_reference(
    backend, workers, serial_hostile_result, anomalies_digests
):
    result = run_tiny_hostile_study(backend, workers)
    per_sweep = study_digests(result)
    assert per_sweep == study_digests(serial_hostile_result), (
        f"{backend} backend diverged from the serial reference"
    )
    assert per_sweep == anomalies_digests["per_sweep"]
    assert study_digest(result) == anomalies_digests["digest"]


def test_spec_plants_every_personality():
    """The golden spec covers the whole registry, so a new personality
    cannot land without extending the pinned study."""
    planted = tiny_hostile_spec().personality_counts()
    assert set(planted) == set(PERSONALITIES)


def test_anomalies_match_spec_ground_truth(anomaly_stats):
    """Every planted pathology detected at its exact planted count."""
    planted = anomaly_stats.spec_personalities
    assert planted == tiny_hostile_spec().personality_counts()
    # Transport-level failures, by category.
    assert anomaly_stats.host_error_categories == {
        "closed": (
            planted["truncated-frame"] + planted["mid-handshake-drop"]
        ),
        "timeout": planted["slow-loris"],
        "transport-rejected": planted["hello-rejecter"],
    }
    assert anomaly_stats.stalled_hosts == planted["slow-loris"]
    assert anomaly_stats.junk_talkers == (
        planted["junk-banner"] + NOISE_HOSTS
    )
    # Session/service-level failures.
    assert anomaly_stats.session_error_categories == {
        "protocol": planted["confused-stack"]
    }
    assert anomaly_stats.details_error_categories == {
        "service-fault": planted["honeypot"]
    }
    assert anomaly_stats.honeypot_suspects == planted["honeypot"]
    # Certificate pathologies.
    assert anomaly_stats.expired_certificates == planted["expired-cert"]
    assert anomaly_stats.hostname_mismatches == (
        planted["hostname-mismatch"]
    )
    # Policy hygiene and presence.
    assert anomaly_stats.deprecated_only_hosts == planted["deprecated-only"]
    assert anomaly_stats.churned_applications == planted["address-churn"]
    # Nothing else fired — the control rows stay clean.
    assert anomaly_stats.not_yet_valid_certificates == 0
    assert anomaly_stats.invalid_signatures == 0


def test_default_population_reports_no_pathologies(tiny_default_anomalies):
    """Zero false positives on the well-behaved golden population."""
    stats = tiny_default_anomalies
    assert stats.host_error_categories == {}
    assert stats.session_error_categories == {}
    assert stats.details_error_categories == {}
    assert stats.expired_certificates == 0
    assert stats.hostname_mismatches == 0
    assert stats.deprecated_only_hosts == 0
    assert stats.honeypot_suspects == 0
    assert stats.churned_applications == 0
    assert stats.stalled_hosts == 0
    # The study config's noise hosts are the only junk talkers.
    assert stats.junk_talkers == NOISE_HOSTS


@pytest.fixture(scope="module")
def tiny_default_anomalies():
    from repro.core.golden import run_tiny_study, tiny_spec

    result = run_tiny_study()
    return analyze_anomalies(result.snapshots, tiny_spec())
