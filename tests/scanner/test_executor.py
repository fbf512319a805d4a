"""Executor backends: scheduling semantics and cross-backend determinism."""

import json

import pytest

from repro.core.study import Study, StudyConfig
from repro.deployments.population import PopulationBuilder, install_hosts
from repro.deployments.spec import PopulationSpec, build_default_spec
from repro.netsim.net import SimNetwork
from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import (
    GrabTask,
    ProbeBatchTask,
    ProcessScanExecutor,
    ScanExecutorError,
    SerialScanExecutor,
    ThreadScanExecutor,
    build_executor,
    resolve_executor,
)
from repro.util.simtime import SimClock, parse_utc

SEED = 20200830  # align with the committed key cache


def _echo_grab(task):
    return f"record-{task.address}:{task.port}"


def _no_expand(task, record):
    return []


class TestSchedulingSemantics:
    @pytest.mark.parametrize(
        "executor",
        [
            SerialScanExecutor(),
            ThreadScanExecutor(4),
            ProcessScanExecutor(2),
        ],
        ids=["serial", "thread", "process"],
    )
    def test_every_task_grabbed_once(self, executor):
        tasks = [GrabTask(n, 4840) for n in (3, 1, 2, 1, 3)]  # dupes collapse
        results = executor.run(tasks, _echo_grab, _no_expand)
        assert sorted(t.key for t, _ in results) == [(1, 4840), (2, 4840), (3, 4840)]
        assert all(r == f"record-{t.address}:{t.port}" for t, r in results)

    @pytest.mark.parametrize(
        "executor",
        [SerialScanExecutor(), ThreadScanExecutor(4)],
        ids=["serial", "thread"],
    )
    def test_expand_feeds_pipeline_transitively(self, executor):
        # 1 -> 2 -> 3: tasks discovered from results are grabbed too,
        # and re-discovering an in-flight key never double-grabs.
        def expand(task, record):
            if task.address < 3:
                return [GrabTask(task.address + 1, 4840), GrabTask(1, 4840)]
            return []

        results = executor.run([GrabTask(1, 4840)], _echo_grab, expand)
        assert sorted(t.address for t, _ in results) == [1, 2, 3]

    @pytest.mark.parametrize(
        "executor", [ThreadScanExecutor(2)], ids=["thread"]
    )
    def test_worker_errors_surface(self, executor):
        def failing_grab(task):
            raise ValueError("boom")

        with pytest.raises(ScanExecutorError) as info:
            executor.run([GrabTask(1, 4840)], failing_grab, _no_expand)
        assert isinstance(info.value.cause, ValueError)

    def test_build_executor(self):
        assert build_executor("serial").name == "serial"
        assert build_executor("thread", 4).workers == 4
        assert build_executor("process", 2).name == "process"
        # One worker never justifies pool overhead.
        assert build_executor("thread", 1).name == "serial"
        with pytest.raises(ValueError):
            build_executor("quantum")
        with pytest.raises(ValueError):
            build_executor("async", 4)
        with pytest.raises(ValueError):
            build_executor("thread", 0)

    def test_resolve_executor_defaults(self):
        import os

        cpus = os.cpu_count() or 1
        assert resolve_executor(None, None) == ("serial", 1)
        # Asking for workers alone picks the backend that scales.
        assert resolve_executor(None, 8) == ("process", 8)
        # Picking a pooled backend alone gets real parallelism.
        assert resolve_executor("process", None) == ("process", cpus)
        assert resolve_executor("thread", None) == ("thread", cpus)
        assert resolve_executor("serial", None) == ("serial", 1)
        assert resolve_executor("thread", 2) == ("thread", 2)
        with pytest.raises(ValueError):
            resolve_executor("quantum", None)
        with pytest.raises(ValueError):
            resolve_executor(None, 0)


class TestSweepStaging:
    """Stage-0 probe batches + deferred stage-2 registration."""

    @pytest.mark.parametrize(
        "executor",
        [
            SerialScanExecutor(),
            ThreadScanExecutor(4),
        ],
        ids=["serial", "thread"],
    )
    def test_probe_batches_expand_into_grabs(self, executor):
        batches = [
            ProbeBatchTask(0, 4840, (1, 2)),
            ProbeBatchTask(1, 4840, (3,)),
        ]

        def perform(task):
            if isinstance(task, ProbeBatchTask):
                return list(task.addresses)  # every address is "open"
            return _echo_grab(task)

        def expand(task, record):
            if isinstance(task, ProbeBatchTask):
                return [GrabTask(address, task.port) for address in record]
            return []

        results = executor.run(batches, perform, expand)
        grabs = sorted(
            t.address for t, _ in results if isinstance(t, GrabTask)
        )
        probes = [t for t, _ in results if isinstance(t, ProbeBatchTask)]
        assert grabs == [1, 2, 3]
        assert len(probes) == 2

    @pytest.mark.parametrize(
        "executor", [ThreadScanExecutor(4)], ids=["thread"]
    )
    def test_via_reference_never_steals_first_wave_keys(self, executor):
        """A fast follow-reference discovery must not claim an address
        a still-running probe batch is about to report as first-wave.

        Batch 1 is forced slow; meanwhile the grab of address 1 (from
        fast batch 0) discovers address 3 via reference.  Address 3 is
        also open in slow batch 1 — the executor must hold the
        via-reference task back and classify 3 as first-wave, exactly
        as the serial reference does.
        """
        import time

        batches = [
            ProbeBatchTask(0, 4840, (1,)),
            ProbeBatchTask(1, 4840, (3,)),
        ]

        def perform(task):
            if isinstance(task, ProbeBatchTask):
                if task.index == 1:
                    time.sleep(0.25)
                return list(task.addresses)
            return _echo_grab(task)

        def expand(task, record):
            if isinstance(task, ProbeBatchTask):
                return [GrabTask(address, task.port) for address in record]
            if task.address == 1 and not task.via_reference:
                return [GrabTask(3, 4840, via_reference=True)]
            return []

        results = executor.run(batches, perform, expand)
        classified = {
            t.address: t.via_reference
            for t, _ in results
            if isinstance(t, GrabTask)
        }
        assert classified == {1: False, 3: False}


def _mini_sweep(executor_name, workers):
    """One follow-references sweep over a reduced population."""
    spec = build_default_spec()
    mini = PopulationSpec(rows=spec.rows[:7])
    builder = PopulationBuilder(mini, seed=SEED)
    hosts = builder.build_hosts()
    network = SimNetwork(SimClock(parse_utc("2020-08-30")))
    install_hosts(network, hosts)
    study = Study(StudyConfig(seed=SEED))
    campaign = ScanCampaign(
        network,
        study.scanner_identity(),
        study._rng.substream("mini"),
        executor=build_executor(executor_name, workers),
    )
    return campaign.run_sweep(label="2020-08-30", follow_references=True)


def _canonical(snapshot) -> str:
    payload = {
        "date": snapshot.date,
        "probed": snapshot.probed,
        "port_open": snapshot.port_open,
        "excluded": snapshot.excluded,
        "records": [r.to_json_dict() for r in snapshot.records],
    }
    return json.dumps(payload, sort_keys=True)


@pytest.mark.slow
class TestBackendDeterminism:
    """Serial is the reference; every backend must match it byte-for-byte."""

    def test_thread_pool_matches_serial(self):
        assert _canonical(_mini_sweep("thread", 4)) == _canonical(
            _mini_sweep("serial", 1)
        )

    def test_process_pool_matches_serial(self):
        assert _canonical(_mini_sweep("process", 4)) == _canonical(
            _mini_sweep("serial", 1)
        )


class TestChunkedSubmission:
    """The process backend's chunked IPC keeps per-task semantics."""

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError):
            ProcessScanExecutor(2, chunk_size=0)
        assert ProcessScanExecutor(2).chunk_size >= 1
        assert ProcessScanExecutor(2, chunk_size=3).chunk_size == 3

    @pytest.mark.parametrize("chunk_size", [1, 2, 64])
    def test_chunk_sizes_produce_identical_results(self, chunk_size):
        """chunk_size only changes IPC granularity, never the results
        — including a chunk larger than the whole task stream, which
        exercises the flush-before-blocking-get path."""
        tasks = [GrabTask(n, 4840) for n in range(1, 8)]
        executor = ProcessScanExecutor(2, chunk_size=chunk_size)
        results = executor.run(tasks, _echo_grab, _no_expand)
        assert sorted((t.key, r) for t, r in results) == [
            ((n, 4840), f"record-{n}:4840") for n in range(1, 8)
        ]

    def test_chunk_worker_isolates_per_task_errors(self, monkeypatch):
        """A failing task inside a chunk yields its own error triple
        without poisoning the chunk's other tasks."""
        from repro.scanner import executor as executor_module

        def grab(task):
            if task.address == 2:
                raise ValueError("boom")
            return _echo_grab(task)

        monkeypatch.setattr(executor_module, "_PROCESS_GRAB", grab)
        chunk = tuple(GrabTask(n, 4840) for n in (1, 2, 3))
        triples = executor_module._process_chunk_worker(chunk)
        assert [t.address for t, _, _ in triples] == [1, 2, 3]
        ok = {t.address: r for t, r, e in triples if e is None}
        assert ok == {1: "record-1:4840", 3: "record-3:4840"}
        (failed,) = [t for t, _, e in triples if e is not None]
        assert failed.address == 2

    def test_buffered_tasks_ship_on_flush(self):
        """_ChunkedSubmit holds a partial chunk until flush(), and the
        relay unpacks the chunk into one queue put per task."""
        import queue

        from repro.scanner.executor import _ChunkedSubmit

        submitted = []

        class _FakeFuture:
            def __init__(self, value):
                self._value = value

            def result(self):
                return self._value

            def add_done_callback(self, callback):
                callback(self)

        class _FakePool:
            def submit(self, fn, chunk):
                submitted.append(chunk)
                return _FakeFuture([(task, f"r{task.address}", None) for task in chunk])

        results_q = queue.Queue()
        submit = _ChunkedSubmit(_FakePool(), results_q, chunk_size=3)
        submit(GrabTask(1, 4840))
        submit(GrabTask(2, 4840))
        assert submitted == []  # partial chunk: buffered, not shipped
        submit(GrabTask(3, 4840))
        assert len(submitted) == 1  # full chunk shipped immediately
        submit(GrabTask(4, 4840))
        submit.flush()
        assert len(submitted) == 2  # remainder shipped by flush
        submit.flush()
        assert len(submitted) == 2  # empty flush is a no-op
        drained = [results_q.get_nowait() for _ in range(4)]
        assert [t.address for t, _, _ in drained] == [1, 2, 3, 4]
        assert all(e is None for _, _, e in drained)

    def test_probe_batches_run_inline_not_in_pool(self, monkeypatch):
        """Stage-0 tasks never cross the IPC boundary: they execute
        inline at submit time and land in inline_results, while grabs
        still buffer toward the pool."""
        import queue

        from repro.scanner import executor as executor_module
        from repro.scanner.executor import _ChunkedSubmit

        def grab(task):
            if isinstance(task, ProbeBatchTask):
                return ("probed", task.index)
            return _echo_grab(task)

        monkeypatch.setattr(executor_module, "_PROCESS_GRAB", grab)

        class _RefusingPool:
            def submit(self, fn, chunk):  # pragma: no cover - the bug
                raise AssertionError("probe batch reached the pool")

        submit = _ChunkedSubmit(_RefusingPool(), queue.Queue(), chunk_size=8)
        submit(ProbeBatchTask(0, 4840, (1, 2)))
        submit(GrabTask(1, 4840))  # buffered, chunk not full: no submit
        submit(ProbeBatchTask(1, 4840, (3,)))
        assert [
            (t.key, r) for t, r, e in submit.inline_results if e is None
        ] == [
            (("probe", 4840, 0), ("probed", 0)),
            (("probe", 4840, 1), ("probed", 1)),
        ]

    def test_probe_expansion_pipeline_on_process_backend(self):
        """End-to-end: probe batches expand into grabs on the process
        backend and the results match the serial reference."""
        batches = [
            ProbeBatchTask(0, 4840, (1, 2)),
            ProbeBatchTask(1, 4840, (3,)),
        ]

        def perform(task):
            if isinstance(task, ProbeBatchTask):
                return list(task.addresses)
            return _echo_grab(task)

        def expand(task, record):
            if isinstance(task, ProbeBatchTask):
                return [GrabTask(address, task.port) for address in record]
            return []

        serial = SerialScanExecutor().run(batches, perform, expand)
        pooled = ProcessScanExecutor(2, chunk_size=2).run(
            batches, perform, expand
        )
        assert sorted(((t.key, r) for t, r in pooled), key=repr) == sorted(
            ((t.key, r) for t, r in serial), key=repr
        )

    def test_worker_error_surfaces_from_chunk(self):
        def failing_grab(task):
            if task.address == 2:
                raise ValueError("boom")
            return _echo_grab(task)

        executor = ProcessScanExecutor(2, chunk_size=2)
        with pytest.raises(ScanExecutorError) as info:
            executor.run(
                [GrabTask(n, 4840) for n in (1, 2, 3)],
                failing_grab,
                _no_expand,
            )
        assert info.value.task.key == (2, 4840)


class TestProfiledExecutor:
    """The --profile wrapper: counters on, results untouched."""

    @pytest.mark.parametrize(
        "inner",
        [SerialScanExecutor(), ThreadScanExecutor(2)],
        ids=["serial", "thread"],
    )
    def test_results_identical_and_stages_counted(self, inner):
        from repro.scanner.executor import ProfiledScanExecutor
        from repro.util.profiling import StageStats

        batches = [ProbeBatchTask(0, 4840, (1, 2))]

        def perform(task):
            if isinstance(task, ProbeBatchTask):
                return list(task.addresses)
            return _echo_grab(task)

        def expand(task, record):
            if isinstance(task, ProbeBatchTask):
                return [GrabTask(address, task.port) for address in record]
            return []

        plain = inner.run(batches, perform, expand)
        stats = StageStats()
        profiled = ProfiledScanExecutor(inner, stats).run(
            batches, perform, expand
        )
        assert sorted((t.key for t, _ in profiled), key=repr) == sorted(
            (t.key for t, _ in plain), key=repr
        )
        table = stats.as_dict()
        assert table["probe"]["tasks"] == 1
        assert table["grab"]["tasks"] == 2
        assert table["probe"]["seconds"] >= 0.0

    def test_wrapper_mirrors_backend_identity(self):
        from repro.scanner.executor import ProfiledScanExecutor
        from repro.util.profiling import StageStats

        wrapped = ProfiledScanExecutor(ThreadScanExecutor(3), StageStats())
        assert wrapped.name == "thread"
        assert wrapped.workers == 3


class TestKeyboardInterrupt:
    """Ctrl-C mid-campaign must tear the pool down, not hang it.

    The checkpointed-shards workflow leans on this: an operator who
    interrupts a campaign expects the process to exit promptly with
    completed shards intact on disk, and ``--resume`` to pick up from
    there.  Each backend gets the same scenario: results flow until
    the coordinator's expand hook raises KeyboardInterrupt, and the
    run must re-raise it within seconds without leaking workers.
    """

    @pytest.mark.parametrize(
        "executor",
        [
            SerialScanExecutor(),
            ThreadScanExecutor(4),
            ProcessScanExecutor(2),
        ],
        ids=["serial", "thread", "process"],
    )
    def test_interrupt_reraises_promptly(self, executor):
        import multiprocessing
        import time

        tasks = [GrabTask(n, 4840) for n in range(1, 121)]
        seen = []

        def interrupting_expand(task, record):
            seen.append(task)
            if len(seen) >= 3:
                raise KeyboardInterrupt
            return []

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            executor.run(tasks, _echo_grab, interrupting_expand)
        elapsed = time.perf_counter() - start
        # Teardown must not wait for the whole task list to grab: the
        # budget is generous against CI noise, but a coordinator that
        # drains all 120 tasks through a real grabber would blow it.
        assert elapsed < 10.0
        assert len(seen) >= 3
        # No worker processes survive the interrupt.
        deadline = time.monotonic() + 5
        while multiprocessing.active_children():
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"leaked workers: {multiprocessing.active_children()}"
                )
            time.sleep(0.05)

    def test_interrupt_during_pooled_grab_does_not_hang(self):
        """KeyboardInterrupt while grabs are slow and in flight: the
        thread backend cancels unstarted futures and re-raises instead
        of blocking on the full pipeline."""
        import time

        def slow_grab(task):
            time.sleep(0.05)
            return _echo_grab(task)

        def interrupt_now(task, record):
            raise KeyboardInterrupt

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            ThreadScanExecutor(2).run(
                [GrabTask(n, 4840) for n in range(1, 61)],
                slow_grab,
                interrupt_now,
            )
        # 60 tasks x 50ms over 2 workers is ~1.5s if nothing is
        # cancelled; an interrupt after the first result must beat it.
        assert time.perf_counter() - start < 1.2
