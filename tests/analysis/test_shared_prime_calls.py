"""The shared-prime check runs once per report and never per diff.

The pairwise GCD over every RSA modulus (§5.3, after Heninger et al.)
is the one quadratic step of the analysis layer.  Only the ``reuse``
registry entry reports its count, so it is the only caller: the
deficit flags (and through them ``breakdown``, ``longitudinal``,
``ipv6`` and the diff fold) need the reused-thumbprint groups alone.
"""

from __future__ import annotations

import pytest

from repro.analysis import reuse
from repro.analysis.diff import summarize_stream
from repro.analysis.pipeline import run_analyses
from repro.core.config import StudyConfig
from repro.dataset.catalog import StudyCatalog
from repro.dataset.store import StudyStore


@pytest.fixture()
def prime_checks(monkeypatch) -> list[int]:
    """Replace ``find_shared_primes`` with a counting wrapper; the
    returned list grows by one entry per call."""
    calls: list[int] = []
    original = reuse.find_shared_primes

    def counting(records):
        calls.append(len(records))
        return original(records)

    monkeypatch.setattr(reuse, "find_shared_primes", counting)
    return calls


def test_one_check_per_report(serial_tiny_result, prime_checks):
    report = run_analyses(
        serial_tiny_result.snapshots,
        serial_tiny_result.spec,
        seed=serial_tiny_result.config.seed,
    )
    assert len(prime_checks) == 1
    assert prime_checks == [len(serial_tiny_result.final_snapshot.servers())]
    assert report["reuse"].shared_prime_pairs == 0


def test_no_check_per_summary(serial_tiny_result, prime_checks):
    summarize_stream(serial_tiny_result.snapshots)
    assert prime_checks == []


def test_no_check_per_catalog_diff(
    serial_tiny_result, prime_checks, tmp_path
):
    store = StudyStore(tmp_path / "store")
    spec, snapshots = serial_tiny_result.spec, serial_tiny_result.snapshots
    key_a = store.save(serial_tiny_result.config, spec, snapshots)
    key_b = store.save(StudyConfig(seed=1), spec, snapshots)
    assert key_a != key_b
    assert StudyCatalog(store).diff(key_a, key_b).is_empty()
    assert prime_checks == []
