"""Shared fixtures.

Key material is expensive to generate in pure Python, so a handful of
RSA keys at the sizes the tests need are created once per session, and
the population's 2048-bit keys always come from the committed
``.keycache/seed20200830/`` — pinned below so CI (whose working
directory or environment may differ) never spends minutes regenerating
them.
"""

from __future__ import annotations

import os
from pathlib import Path

# Must happen before any repro import: the key factory reads
# REPRO_KEYCACHE at module import time.
os.environ.setdefault(
    "REPRO_KEYCACHE", str(Path(__file__).resolve().parents[1] / ".keycache")
)

import pytest  # noqa: E402

from repro.crypto.rsa import generate_rsa_key  # noqa: E402
from repro.util.rng import DeterministicRng  # noqa: E402


@pytest.fixture(scope="session")
def serial_tiny_result():
    """One serial tiny-spec study per session.

    Shared by the golden-digest suite (committed-digest subject and
    parallel-backend reference), the study-store round-trip tests, and
    the analysis-pipeline equivalence tests, so the whole fast tier
    pays for exactly one tiny scan.
    """
    from repro.core.golden import run_tiny_study

    return run_tiny_study("serial", 1)


@pytest.fixture(scope="session")
def golden_secure_result():
    """The serial negotiated-security golden study, once per session
    (for suites outside ``test_negotiated_golden.py``)."""
    from repro.core.golden import run_tiny_secure_study

    return run_tiny_secure_study()


@pytest.fixture(scope="session")
def golden_hostile_result():
    """The serial device-zoo golden study, once per session (for
    suites outside ``test_anomalies_golden.py``)."""
    from repro.core.golden import run_tiny_hostile_study

    return run_tiny_hostile_study()


@pytest.fixture(scope="session")
def rng():
    return DeterministicRng(20200830, "tests")


@pytest.fixture(scope="session")
def rsa_512(rng):
    return generate_rsa_key(512, rng.substream("rsa-512"))


@pytest.fixture(scope="session")
def rsa_768(rng):
    return generate_rsa_key(768, rng.substream("rsa-768"))


@pytest.fixture(scope="session")
def rsa_1024(rng):
    return generate_rsa_key(1024, rng.substream("rsa-1024"))


@pytest.fixture(scope="session")
def rsa_2048(rng):
    return generate_rsa_key(2048, rng.substream("rsa-2048"))
