"""Longitudinal diff benchmark: streaming-fold throughput per backend.

Stores the session study twice — once as-is and once with every sweep
relabeled a year later under a different seed, the cheapest way to get
two distinct registry entries over an identical record stream — then
times ``StudyCatalog.diff`` through every executor backend.  The diff
itself is churn-free by construction, so the measurement isolates what
dominates real diffs too: decoding and folding every stored record.  The diff digest
must be byte-identical across backends (the same determinism contract
the scan engine carries), and records/second through the streaming
fold lands in the ``diff`` section of ``benchmarks/.sweep_metrics.json``
for ``benchmarks/report.py`` to publish as ``diff_throughput``, which
``benchmarks/compare.py`` gates against ``BENCH_baseline.json``.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from benchmarks.test_bench_sweep import _update_metrics
from repro.core.config import StudyConfig
from repro.dataset.catalog import StudyCatalog
from repro.dataset.store import StudyStore

SEED = 20200830
BACKENDS = (("serial", 1), ("thread", 4), ("process", 4))


@pytest.fixture(scope="module")
def diff_store(study_result, tmp_path_factory):
    root = tmp_path_factory.mktemp("diffstore") / "store"
    store = StudyStore(root)
    key_a = store.save(
        study_result.config, study_result.spec, study_result.snapshots
    )
    shifted = [
        replace(snapshot, date=snapshot.date.replace("2020", "2021"))
        for snapshot in study_result.snapshots
    ]
    key_b = store.save(
        StudyConfig(seed=SEED + 1), study_result.spec, shifted
    )
    return root, key_a, key_b


def test_bench_diff_throughput(diff_store):
    root, key_a, key_b = diff_store
    catalog = StudyCatalog(StudyStore(root))
    # Every backend folds both studies, so throughput is measured over
    # the combined record count.
    records = sum(info.records for info in catalog.list_runs())

    metrics = {}
    reference_digest = None
    serial_seconds = None
    for name, workers in BACKENDS:
        start = time.perf_counter()
        diff = catalog.diff(key_a, key_b, executor=name, workers=workers)
        elapsed = time.perf_counter() - start
        digest = diff.digest()
        if reference_digest is None:
            reference_digest, serial_seconds = digest, elapsed
        else:
            assert digest == reference_digest, (
                f"{name} backend produced a different diff digest"
            )
        metrics[f"{name}x{workers}"] = {
            "seconds": round(elapsed, 3),
            "records": records,
            "records_per_second": round(records / elapsed, 1),
            "speedup_vs_serial": round(serial_seconds / elapsed, 2),
        }
        print(
            f"[diff] {name}x{workers}: {records} records in {elapsed:.2f}s "
            f"({records / elapsed:.0f} records/s, "
            f"{serial_seconds / elapsed:.2f}x serial)"
        )

    # The relabeled copy holds the same records, so the diff must fold
    # down to "no longitudinal differences" — anything else means a
    # backend mangled the stream.
    assert diff.is_empty()
    assert diff.servers_a == diff.servers_b

    _update_metrics("diff", metrics)
