"""Scan-engine benchmark: serial vs. parallel sweep + probe throughput.

Times the final (2020-08-30) sweep — port scan, per-host grab,
follow-references — once per executor backend against an identically
re-assembled network, asserts the resulting snapshots are
byte-identical, and records hosts-per-second throughput to
``benchmarks/.sweep_metrics.json`` for ``benchmarks/report.py`` to
fold into ``BENCH_sweep.json``.  A second, probe-dominated benchmark
(a wide sweep of a port almost nobody listens on) isolates the SYN
stage the executor now also fans out, and reports addresses/second.

The threaded backend mostly overlaps scheduling (the simulation is
pure Python, so the GIL serializes it); the fork-based process backend
is the one that scales with cores.  The ≥2× speedup assertion therefore
targets the process backend and only on machines with at least four
CPUs (set ``REPRO_BENCH_STRICT=1`` to enforce it there).  Probing is
different: the process backend runs stage-0 batches inline in the
coordinator (a batch is cheaper than its pickle), so its strict probe
gate asserts near-serial throughput rather than a speedup.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.study import Study, StudyConfig
from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import build_executor

SEED = 20200830
FINAL_SWEEP = 7
BACKENDS = (("serial", 1), ("thread", 4), ("process", 4))
METRICS_PATH = Path(__file__).resolve().parent / ".sweep_metrics.json"

# Probe benchmark shape: a port with (nearly) no listeners, many empty
# candidates, and coarse batches so per-task work dwarfs pool overhead.
PROBE_PORT = 9999
PROBE_EXTRA_CANDIDATES = 20_000
PROBE_BATCH_SIZE = 1024


def _snapshot_json(snapshot) -> str:
    return json.dumps(snapshot.to_json_dict(), sort_keys=True)


def _update_metrics(section: str, data: dict) -> None:
    """Merge one section into the shared side file (report.py input).

    Both benchmarks in this module write it; merging keeps whichever
    ran (``-k`` selections included) without clobbering the other.
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


def _run_final_sweep(study_result, executor_name: str, workers: int):
    """Re-assemble the last sweep's Internet and scan it once."""
    network = study_result.timeline.network_for_sweep(FINAL_SWEEP)
    study = Study(StudyConfig(seed=SEED))
    campaign = ScanCampaign(
        network,
        study.scanner_identity(),
        study._rng.substream("bench-sweep"),
        executor=build_executor(executor_name, workers),
    )
    start = time.perf_counter()
    snapshot = campaign.run_sweep(
        label="2020-08-30", follow_references=True, traverse=False
    )
    elapsed = time.perf_counter() - start
    return snapshot, elapsed


def test_bench_sweep_throughput(study_result):
    metrics = {}
    reference_json = None
    serial_seconds = None

    for name, workers in BACKENDS:
        snapshot, elapsed = _run_final_sweep(study_result, name, workers)
        payload = _snapshot_json(snapshot)
        if reference_json is None:
            reference_json = payload
            serial_seconds = elapsed
        else:
            assert payload == reference_json, (
                f"{name} backend diverged from the serial reference"
            )
        hosts = len(snapshot.records)
        metrics[f"{name}x{workers}"] = {
            "seconds": round(elapsed, 3),
            "hosts": hosts,
            "hosts_per_second": round(hosts / elapsed, 1),
            "speedup_vs_serial": round(serial_seconds / elapsed, 2),
        }
        print(
            f"[sweep] {name}x{workers}: {hosts} hosts in {elapsed:.2f}s "
            f"({hosts / elapsed:.0f} hosts/s, "
            f"{serial_seconds / elapsed:.2f}x serial)"
        )

    _update_metrics("backends", metrics)

    if os.environ.get("REPRO_BENCH_STRICT") and (os.cpu_count() or 1) >= 4:
        speedup = metrics["processx4"]["speedup_vs_serial"]
        assert speedup >= 2.0, f"process pool only {speedup}x serial"


def _run_probe_sweep(study_result, executor_name: str, workers: int):
    """Probe ``PROBE_PORT`` across the final network plus 20k empties.

    Almost nothing listens there, so grab work is negligible and the
    measurement isolates stage-0 batch fan-out.
    """
    network = study_result.timeline.network_for_sweep(FINAL_SWEEP)
    study = Study(StudyConfig(seed=SEED))
    campaign = ScanCampaign(
        network,
        study.scanner_identity(),
        study._rng.substream("bench-probe"),
        port=PROBE_PORT,
        executor=build_executor(executor_name, workers),
    )
    start = time.perf_counter()
    snapshot = campaign.run_sweep(
        label="2020-08-30",
        traverse=False,
        extra_candidates=PROBE_EXTRA_CANDIDATES,
        batch_size=PROBE_BATCH_SIZE,
    )
    elapsed = time.perf_counter() - start
    return snapshot, elapsed


def test_bench_probe_throughput(study_result):
    metrics = {}
    reference = None
    serial_seconds = None

    for name, workers in BACKENDS:
        snapshot, elapsed = _run_probe_sweep(study_result, name, workers)
        accounting = (snapshot.probed, snapshot.port_open, snapshot.excluded)
        if reference is None:
            reference, serial_seconds = accounting, elapsed
        else:
            assert accounting == reference, (
                f"{name} probe accounting diverged from serial"
            )
        addresses = snapshot.probed + snapshot.excluded
        metrics[f"{name}x{workers}"] = {
            "seconds": round(elapsed, 3),
            "addresses": addresses,
            "addresses_per_second": round(addresses / elapsed, 1),
            "speedup_vs_serial": round(serial_seconds / elapsed, 2),
        }
        print(
            f"[probe] {name}x{workers}: {addresses} addresses in "
            f"{elapsed:.2f}s ({addresses / elapsed:.0f} addr/s, "
            f"{serial_seconds / elapsed:.2f}x serial)"
        )

    _update_metrics("probe", metrics)

    if os.environ.get("REPRO_BENCH_STRICT") and (os.cpu_count() or 1) >= 4:
        # The process backend runs stage-0 probe batches inline in the
        # coordinator (zmap's SYN loop was single-threaded too), so its
        # probe throughput tracks serial minus pool setup — the strict
        # gate guards against regressing back to paying IPC per batch.
        speedup = metrics["processx4"]["speedup_vs_serial"]
        assert speedup >= 0.7, f"process-backend probing only {speedup}x serial"


SHARD_COUNT = 4
SHARD_BACKENDS = (("serial", 1), ("process", 4))


def _run_sharded_sweep(study_result, executor_name: str, workers: int):
    """Scan the final sweep as ``SHARD_COUNT`` shards, then merge.

    Each shard re-assembles its own network view and scans only its
    slice of the candidate permutation — the single-machine stand-in
    for a fleet — and the deterministic merge reassembles the sweep.
    Timing covers all shards plus the merge, so hosts/second here is
    directly comparable to the unsharded ``backends`` section (the
    gap is the per-shard environment-rebuild + merge overhead).
    """
    from repro.scanner.shard import ShardSpec, ShardedScanCampaign, merge_sweep

    start = time.perf_counter()
    parts = []
    for index in range(SHARD_COUNT):
        network = study_result.timeline.network_for_sweep(FINAL_SWEEP)
        study = Study(StudyConfig(seed=SEED))
        campaign = ShardedScanCampaign(
            network,
            study.scanner_identity(),
            study._rng.substream("bench-sweep"),
            executor=build_executor(executor_name, workers),
            shard=ShardSpec(index, SHARD_COUNT),
        )
        parts.append(
            campaign.run_sweep(
                label="2020-08-30", follow_references=True, traverse=False
            )
        )
    merged = merge_sweep(parts)
    elapsed = time.perf_counter() - start
    return merged, elapsed


def test_bench_sharded_sweep_throughput(study_result):
    """Sharded sweep + merge matches the unsharded snapshot byte-for-byte
    and records its throughput for the ``sharded_throughput`` gate."""
    reference, _ = _run_final_sweep(study_result, "serial", 1)
    reference_json = _snapshot_json(reference)

    metrics = {}
    serial_seconds = None
    for name, workers in SHARD_BACKENDS:
        merged, elapsed = _run_sharded_sweep(study_result, name, workers)
        assert _snapshot_json(merged) == reference_json, (
            f"{name} sharded merge diverged from the unsharded reference"
        )
        if serial_seconds is None:
            serial_seconds = elapsed
        hosts = len(merged.records)
        metrics[f"{name}x{workers}"] = {
            "seconds": round(elapsed, 3),
            "hosts": hosts,
            "shards": SHARD_COUNT,
            "hosts_per_second": round(hosts / elapsed, 1),
            "speedup_vs_serial": round(serial_seconds / elapsed, 2),
        }
        print(
            f"[sharded] {name}x{workers} ({SHARD_COUNT} shards): "
            f"{hosts} hosts in {elapsed:.2f}s "
            f"({hosts / elapsed:.0f} hosts/s, "
            f"{serial_seconds / elapsed:.2f}x serial)"
        )

    _update_metrics("sharded", metrics)


def test_bench_parallel_study_identical(study_result):
    """Acceptance: a full 8-sweep study with 4 workers is byte-identical
    to the serial reference (the session-cached ``study_result``).

    Uses the process backend deliberately: it is the backend whose
    worker-side state never propagates back to the parent, so the
    cross-sweep interactions (renewals, reseeding, discovery fleets)
    are the riskiest there — and on a multi-core runner it is also the
    fastest way to run the second study.
    """
    parallel = Study(
        StudyConfig(seed=SEED, executor="process", workers=4)
    ).run()
    assert len(parallel.snapshots) == len(study_result.snapshots)
    for serial_snap, parallel_snap in zip(
        study_result.snapshots, parallel.snapshots
    ):
        assert parallel_snap.date == serial_snap.date
        assert parallel_snap.probed == serial_snap.probed
        assert parallel_snap.port_open == serial_snap.port_open
        assert parallel_snap.excluded == serial_snap.excluded
        assert _snapshot_json(parallel_snap) == _snapshot_json(serial_snap)
