"""Hostile-population benchmark: grab throughput through the device zoo.

Times the full eight-sweep hostile golden study once per executor
backend.  Every grab in this population hits a pathology — stalled
writers, mid-handshake drops, transport rejections, junk banners —
so this is the worst-case complement of ``test_bench_sweep.py``'s
well-behaved population: it guards the *failure* paths (error
classification, stall deadlines, early aborts) against throughput
regressions, and re-asserts cross-backend byte-identity while doing
so.  Also times the ``anomalies`` analysis over the resulting
snapshots.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.analysis.anomalies import analyze_anomalies
from repro.core.golden import (
    run_tiny_hostile_study,
    study_digest,
    tiny_hostile_spec,
)

BACKENDS = (("serial", 1), ("thread", 4), ("process", 4))
METRICS_PATH = Path(__file__).resolve().parent / ".sweep_metrics.json"


def _update_metrics(section: str, data: dict) -> None:
    """Merge one section into the shared side file (report.py input).

    Same merge protocol as ``test_bench_sweep.py``: keep whatever
    other benchmarks wrote, replace only this section.
    """
    merged = {}
    if METRICS_PATH.exists():
        try:
            merged = json.loads(METRICS_PATH.read_text())
        except json.JSONDecodeError:
            merged = {}
    merged["cpu_count"] = os.cpu_count()
    merged[section] = data
    METRICS_PATH.write_text(json.dumps(merged, indent=2))


def test_bench_hostile_grab_throughput():
    metrics = {}
    reference_digest = None
    serial_seconds = None
    serial_result = None

    for name, workers in BACKENDS:
        start = time.perf_counter()
        result = run_tiny_hostile_study(name, workers)
        elapsed = time.perf_counter() - start
        digest = study_digest(result)
        if reference_digest is None:
            reference_digest = digest
            serial_seconds = elapsed
            serial_result = result
        else:
            assert digest == reference_digest, (
                f"{name} backend diverged on the hostile population"
            )
        grabs = sum(len(s.records) for s in result.snapshots)
        metrics[f"{name}x{workers}"] = {
            "seconds": round(elapsed, 3),
            "hosts": grabs,
            "hosts_per_second": round(grabs / elapsed, 1),
            "speedup_vs_serial": round(serial_seconds / elapsed, 2),
        }
        print(
            f"[hostile] {name}x{workers}: {grabs} grabs in {elapsed:.2f}s "
            f"({grabs / elapsed:.0f} hosts/s, "
            f"{serial_seconds / elapsed:.2f}x serial)"
        )

    _update_metrics("hostile", metrics)

    # The analysis itself is cheap; assert it stays that way and that
    # its ground truth holds on the bench run too.
    start = time.perf_counter()
    stats = analyze_anomalies(serial_result.snapshots, tiny_hostile_spec())
    analysis_seconds = time.perf_counter() - start
    print(f"[hostile] anomalies analysis: {analysis_seconds * 1000:.1f}ms")
    assert stats.spec_personalities == tiny_hostile_spec().personality_counts()
    assert stats.stalled_hosts == stats.spec_personalities["slow-loris"]
