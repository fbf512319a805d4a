"""Self-tests of the benchmark itself (about three minutes).

    python3 -m pytest perfbench/selftest.py -q

Smoke-size runs of every workload through the command line, one
planted wrong answer per workload, same-seed determinism, and the
contract between ``BENCHMARK.json`` and the code that prints the
metrics.  The file name keeps it out of the repository's own test
collection: these runs build populations and are not unit tests.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "_out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import LAYER_METRICS, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in BENCH["workloads"]]


def cli(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return completed


def smoke(workload: str, seed: int, trace: int):
    completed = cli(workload, seed, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    summary = json.loads(
        (OUT_DIR / f"summary-{workload}-seed{seed}-trace{trace}.json")
        .read_text()
    )
    return result, summary


def test_benchmark_json_matches_the_code():
    assert NAMES == list(WORKLOADS)
    assert [
        (metric["name"], metric["unit"]) for metric in BENCH["end_to_end"]
    ] == list(run.END_TO_END)
    assert [
        (metric["name"], metric["unit"], metric["better"])
        for metric in BENCH["per_layer"]
    ] == LAYER_METRICS
    bounds = {
        metric["name"]: metric["bound"] for metric in BENCH["end_to_end"]
    }
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = [float(value) for value in range(100)]
    percentile, value, count = tail_percentile(samples)
    assert (percentile, value, count) == (90.0, 89.0, 100)
    assert sum(sample > value for sample in samples) == 10
    assert tail_percentile([3.0, 1.0])[:2] == (100.0, 3.0)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result, summary = smoke(workload, seed=11, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {
        metric["name"]: metric["unit"] for metric in BENCH[section]
    }
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    assert summary["keys"]["generated"] == 0


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_outputs(workload):
    _, first = smoke(workload, seed=5, trace=1)
    _, second = smoke(workload, seed=5, trace=1)
    _, other = smoke(workload, seed=6, trace=1)
    common = min(len(first["digests"]), len(second["digests"]))
    assert common >= 1
    assert first["digests"][:common] == second["digests"][:common]
    assert other["digests"][0] != first["digests"][0]


def _plant_paper(monkeypatch, workloads):
    op = workloads.PaperSweeps.op

    def wrong_negotiation(self, state, index):
        week, junk, snapshot = op(self, state, index)
        for record in snapshot.records:
            if record.session is not None:
                record.session.negotiated_mode = 99
        return week, junk, snapshot

    monkeypatch.setattr(workloads.PaperSweeps, "op", wrong_negotiation)


def _plant_sparse(monkeypatch, workloads):
    op = workloads.SparseInternet.op

    def junk_as_opcua(self, state, index):
        outcome = op(self, state, index)
        for record in outcome[2].records:
            record.is_opcua = True
        return outcome

    monkeypatch.setattr(workloads.SparseInternet, "op", junk_as_opcua)


def _plant_store(monkeypatch, workloads):
    monkeypatch.setattr(
        workloads.StudyStoreWorkload,
        "_report",
        lambda self, state, study, pick: "0" * 64,
    )


@pytest.mark.parametrize(
    "workload,plant",
    (
        ("paper-sweeps", _plant_paper),
        ("sparse-internet", _plant_sparse),
        ("study-store", _plant_store),
    ),
)
def test_planted_wrong_answer_is_counted(workload, plant, monkeypatch):
    import workloads

    plant(monkeypatch, workloads)
    summary = run.run(workload, seed=3, seconds=1, trace=1, smoke=True)
    assert summary["failed"] >= 1
    assert summary["attempted"] >= summary["failed"]
    assert run.result_line(summary)["correct"] is False


def test_fails_without_the_program():
    bare = OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(
        "_out", "__pycache__"))
    try:
        completed = cli("study-store", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
