"""Pluggable scan-execution backends for the campaign engine.

The paper's infrastructure ran zmap and zgrab2 as a pipeline: while
the port sweep was still emitting open addresses, protocol grabs were
already running, and endpoints referenced by already-grabbed servers
were fed back into the grab queue.  This module reproduces that shape
with three interchangeable backends:

* :class:`SerialScanExecutor` — one task at a time (the seed
  behaviour, and the reference for determinism checks);
* :class:`ThreadScanExecutor` — a thread pool (overlaps tasks; bounded
  by the GIL for pure-Python work, but the right shape for live grabs,
  which spend their time blocked on sockets);
* :class:`ProcessScanExecutor` — a fork-based process pool (true
  multi-core throughput on POSIX; workers inherit the simulated
  network and the in-memory RSA keycache through fork, so nothing is
  re-generated per worker).

Tasks come in pipeline *stages*: the SYN sweep itself runs as
stage-0 :class:`ProbeBatchTask`s, the protocol grabs they discover are
stage 1, and follow-reference grabs are stage 2.  The coordinator
defers stage-2 task registration until every stage-0 batch has
completed and expanded, so whether an address is classified as
first-wave or via-reference never depends on completion timing — the
structural invariant that keeps all backends byte-identical now that
probing and grabbing overlap end-to-end.

Determinism is structural, not accidental: results are keyed by
``(address, port)`` and re-ordered canonically by the campaign, every
grab derives its RNG from a pure ``(seed, date, address, port)``
substream, and each grab runs against a per-task network view with its
own clock, so all backends produce byte-identical
:class:`~repro.scanner.records.MeasurementSnapshot` sequences.
"""

from __future__ import annotations

import os
import queue
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Tuple

#: Default bound on the in-flight result stream.  Workers block once
#: this many grabs are waiting for the coordinator, which keeps memory
#: flat on very large sweeps (backpressure, like a fixed kernel socket
#: buffer between zmap and zgrab2).
DEFAULT_QUEUE_SIZE = 64

EXECUTOR_NAMES = ("serial", "thread", "process")

#: Grab tasks per IPC round-trip on the process backend.  Submitting
#: and collecting one task at a time costs a pickle, a queue wake-up,
#: and a done-callback per task; chunking amortizes all three.  (Probe
#: batches never cross the IPC boundary at all — see
#: :class:`_ChunkedSubmit`.)
DEFAULT_CHUNK_SIZE = 8


@dataclass(frozen=True)
class ProbeBatchTask:
    """One SYN-sweep batch: probe ``addresses`` on ``port``.

    Stage 0 of the pipeline.  The campaign probes each batch on its own
    :class:`~repro.netsim.net.NetworkView`, so batches are independent
    and safe to fan out.
    """

    index: int
    port: int
    addresses: tuple[int, ...]

    stage = 0

    @property
    def key(self) -> tuple[str, int, int]:
        return ("probe", self.port, self.index)


@dataclass(frozen=True)
class GrabTask:
    """One host/port the engine owes a grab."""

    address: int
    port: int
    via_reference: bool = False

    @property
    def stage(self) -> int:
        return 2 if self.via_reference else 1

    @property
    def key(self) -> tuple[int, int]:
        return (self.address, self.port)


def _stage(task) -> int:
    return getattr(task, "stage", 1)


GrabFn = Callable[[GrabTask], object]
ExpandFn = Callable[[GrabTask, object], Iterable[GrabTask]]
ResultList = List[Tuple[GrabTask, object]]


class ScanExecutorError(RuntimeError):
    """A worker failed; carries the original task for diagnostics."""

    def __init__(self, task, cause: BaseException):
        # Tasks are not only grabs anymore (probe batches, analysis
        # tasks) — identify them by their pipeline key.
        super().__init__(f"task {task.key!r} failed: {cause!r}")
        self.task = task
        self.cause = cause


class ScanExecutor(ABC):
    """Fan ``grab`` out over a task stream, feeding back discoveries.

    ``run`` owns deduplication: every task key enters the pipeline at
    most once, whether it arrived with the initial stream or from
    ``expand``.  Completion order is backend-specific; callers
    re-order results canonically.
    """

    name: str = "abstract"
    workers: int = 1

    @abstractmethod
    def run(
        self, tasks: Iterable[GrabTask], grab: GrabFn, expand: ExpandFn
    ) -> ResultList:
        """Grab every task (plus everything ``expand`` discovers)."""


class SerialScanExecutor(ScanExecutor):
    """FIFO, one task at a time — the determinism reference.

    FIFO order alone satisfies the stage invariant: every stage-0
    probe batch precedes (and therefore expands before) the grabs it
    discovers, so all first-wave keys are registered before the first
    grab — let alone its follow-reference expansion — ever runs.
    """

    name = "serial"

    def run(self, tasks, grab, expand) -> ResultList:
        results: ResultList = []
        seen: set = set()
        pending: list = []
        for task in tasks:
            if task.key not in seen:
                seen.add(task.key)
                pending.append(task)
        cursor = 0
        while cursor < len(pending):
            task = pending[cursor]
            cursor += 1
            record = grab(task)
            results.append((task, record))
            for new_task in expand(task, record):
                if new_task.key not in seen:
                    seen.add(new_task.key)
                    pending.append(new_task)
        return results


class _PooledScanExecutor(ScanExecutor):
    """Shared coordinator for the thread and process backends.

    The coordinator submits the initial task stream (so grabbing
    starts while the port sweep is still probing), then drains a
    bounded result queue, expanding each finished task into newly
    discovered ones until the pipeline runs dry.  It also enforces the
    stage invariant: follow-reference (stage-2) tasks are deferred
    while stage-0 probe batches are in flight, so key registration
    order — and with it first-wave classification — matches the serial
    reference regardless of completion timing.
    """

    def __init__(self, workers: int, queue_size: int = DEFAULT_QUEUE_SIZE):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.queue_size = queue_size

    def run(self, tasks, grab, expand) -> ResultList:
        results: ResultList = []
        seen: set = set()
        results_q: queue.Queue = queue.Queue(maxsize=self.queue_size)
        state = {"pending": 0, "sweeping": 0}
        # Stage-2 (follow-reference) tasks discovered while stage-0
        # probe batches are still in flight.  Registering them
        # immediately would let a fast via-reference discovery claim an
        # (address, port) key that a still-probing batch is about to
        # classify as first-wave — a race the serial backend can never
        # lose.  Deferring registration until the sweep is fully
        # expanded makes the classification timing-independent.
        deferred: list = []

        with self._pool(grab, results_q) as submit:
            # Backends that buffer submissions into chunks (the process
            # pool) expose a flush; it must run before every blocking
            # get, or the coordinator would wait on results of tasks
            # still sitting in the submit buffer.  The same backend may
            # complete some tasks inline in the coordinator (stage-0
            # probes); those triples arrive in ``inline_results``, not
            # on the queue, and are consumed before any blocking get.
            flush_submits = getattr(submit, "flush", None)
            inline_results = getattr(submit, "inline_results", None)

            def enqueue(task) -> None:
                if task.key in seen:
                    return
                if _stage(task) >= 2 and state["sweeping"]:
                    deferred.append(task)
                    return
                seen.add(task.key)
                state["pending"] += 1
                if _stage(task) == 0:
                    state["sweeping"] += 1
                submit(task)

            try:
                for task in tasks:
                    enqueue(task)
                while state["pending"]:
                    if flush_submits is not None:
                        flush_submits()
                    if inline_results:
                        task, record, error = inline_results.pop(0)
                    else:
                        task, record, error = results_q.get()
                    state["pending"] -= 1
                    if error is not None:
                        raise ScanExecutorError(task, error)
                    if _stage(task) == 0:
                        state["sweeping"] -= 1
                    results.append((task, record))
                    for new_task in expand(task, record):
                        enqueue(new_task)
                    if deferred and not state["sweeping"]:
                        # The final probe batch just expanded: every
                        # first-wave key is now registered, so the held
                        # follow-reference tasks can safely dedup.
                        flush, deferred = deferred, []
                        for held_task in flush:
                            enqueue(held_task)
            except BaseException as exc:
                # Drain every outstanding result so pool shutdown (run
                # by the context exit) cannot deadlock on workers
                # blocked at the bounded queue.  Safe to block: every
                # backend guarantees one queue put per submitted task
                # (thread workers always put; process chunk relays put
                # one triple per task even on cancellation or a broken
                # pool) — provided buffered submissions are flushed
                # first, since a task still in the submit buffer has no
                # worker owing a put.
                abort = getattr(submit, "abort", None)
                if isinstance(exc, KeyboardInterrupt) and abort is not None:
                    # Ctrl-C means *stop now*, not "finish the sweep,
                    # then stop".  Each backend's abort cancels what
                    # has not started and returns how many tasks were
                    # thereby relieved of their queue put (the process
                    # backend also terminates its forked workers —
                    # their in-flight chunks resolve as broken-pool
                    # error triples), so the drain below still closes
                    # the books before the pool shuts down and the
                    # interrupt is re-raised.
                    state["pending"] -= abort()
                elif flush_submits is not None:
                    flush_submits()
                if inline_results:
                    # Inline triples have no worker owing a queue put.
                    state["pending"] -= len(inline_results)
                    inline_results.clear()
                while state["pending"]:
                    results_q.get()
                    state["pending"] -= 1
                raise
        return results

    def _pool(self, grab, results_q):
        raise NotImplementedError


class ThreadScanExecutor(_PooledScanExecutor):
    """Thread-pool backend with a bounded result stream."""

    name = "thread"

    def _pool(self, grab, results_q):
        executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="scan-grab"
        )

        def worker(task: GrabTask) -> None:
            try:
                record, error = grab(task), None
            except BaseException as exc:  # surfaced by the coordinator
                record, error = None, exc
            results_q.put((task, record, error))

        class _Ctx:
            def __enter__(self_inner):
                futures: list = []

                def submit(task) -> None:
                    futures.append(executor.submit(worker, task))

                def abort() -> int:
                    # A queued-but-unstarted future cancels cleanly —
                    # its worker never runs, so it owes no queue put;
                    # the returned count squares the coordinator's
                    # books.  Running grabs finish and put as usual.
                    cancelled = sum(
                        1 for future in futures if future.cancel()
                    )
                    futures.clear()
                    return cancelled

                submit.abort = abort
                return submit

            def __exit__(self_inner, *exc_info):
                executor.shutdown(wait=True)
                return False

        return _Ctx()


# The grab closure is installed module-globally right before the pool
# forks, so worker processes inherit it without pickling (closures over
# the simulated network are not picklable; tasks and records are).
# _PROCESS_LOCK serializes process-pool runs within one parent process:
# the global is per-process, so overlapping runs would otherwise fork
# workers against the wrong sweep's closure.
_PROCESS_GRAB: GrabFn | None = None
_PROCESS_LOCK = threading.Lock()


def _process_worker(task: GrabTask):
    try:
        return task, _PROCESS_GRAB(task), None
    except BaseException as exc:
        return task, None, exc


def _process_chunk_worker(chunk: tuple):
    """Run one chunk of tasks in a worker, isolating per-task errors.

    A failing task yields its error triple without poisoning the rest
    of the chunk, so error semantics match the one-task-per-future
    protocol exactly.
    """
    return [_process_worker(task) for task in chunk]


class _ChunkedSubmit:
    """Buffered task submission: one pool round-trip per chunk.

    Callable like the plain per-task submit; full chunks ship
    immediately and :meth:`flush` ships the remainder.  The relay
    unpacks each chunk back into one queue put per task, preserving
    the coordinator's accounting invariant.

    Stage-0 probe batches never enter the pool at all: a batch costs
    about a millisecond of pure-Python work, far less than its pickle
    round-trip, so shipping probes to a worker makes the process
    backend the *slowest* prober.  zmap itself ran its SYN loop
    single-threaded for the same reason — only the protocol grabs are
    worth a process.  Probes therefore run inline in the coordinator
    and land in :attr:`inline_results`, which the coordinator drains
    preferentially (an inline triple never touches the bounded results
    queue: the coordinator putting into a queue only it drains would
    deadlock once full).
    """

    def __init__(self, pool, results_q, chunk_size: int):
        self._pool = pool
        self._results_q = results_q
        self._chunk_size = chunk_size
        self._buffer: list = []
        #: Completed (task, record, error) triples from inline stage-0
        #: execution, drained by the coordinator before it blocks.
        self.inline_results: list = []

    def abort(self) -> int:
        """Interrupt support: drop buffered tasks, kill the workers.

        Buffered tasks never reached the pool, so they owe no queue
        put — the returned count squares the coordinator's books.
        In-flight chunks are *not* cancelled (their relays would put
        from the aborting thread, which can deadlock on a full results
        queue); instead the forked workers are terminated, which
        breaks the pool and fails every outstanding future with
        ``BrokenProcessPool`` from the pool's management thread — each
        relay still puts one triple per task, off the coordinator
        thread, so the drain that follows always completes.
        """
        dropped = len(self._buffer)
        self._buffer.clear()
        processes = getattr(self._pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        return dropped

    def __call__(self, task) -> None:
        if _stage(task) == 0:
            self.inline_results.append(_process_worker(task))
            return
        self._buffer.append(task)
        if len(self._buffer) >= self._chunk_size:
            self.flush()

    def flush(self) -> None:
        if not self._buffer:
            return
        chunk = tuple(self._buffer)
        self._buffer.clear()
        future = self._pool.submit(_process_chunk_worker, chunk)
        results_q = self._results_q

        def relay(fut, chunk=chunk):
            try:
                for triple in fut.result():
                    results_q.put(triple)
            except BaseException as exc:
                # Covers BrokenProcessPool: a worker dying abnormally
                # fails the sweep instead of hanging the coordinator.
                # Every task of the chunk still gets its queue put.
                for task in chunk:
                    results_q.put((task, None, exc))

        future.add_done_callback(relay)


class ProcessScanExecutor(_PooledScanExecutor):
    """Fork-based process pool: real parallelism for CPU-bound grabs.

    Workers inherit the whole simulated Internet (hosts, servers, RSA
    keys) via fork, grab independently, and ship ``HostRecord``s back
    through pickling.  Server-side state mutated inside a worker stays
    in that worker — safe because per-sweep server RNG re-seeding makes
    each sweep's responses independent of earlier connection history.

    Grab tasks cross the IPC boundary in chunks of ``chunk_size`` (one
    pickled submission and one pickled result list per chunk), which
    amortizes the per-round-trip overhead.  Stage-0 probe batches run
    inline in the coordinator instead — a batch is cheaper than its
    pickle, so forking the SYN sweep can only slow it down (zmap's SYN
    loop was single-threaded for the same reason).
    """

    name = "process"

    def __init__(
        self,
        workers: int,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        super().__init__(workers, queue_size)
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size

    def _pool(self, grab, results_q):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "process executor requires the 'fork' start method; "
                "use the 'thread' or 'serial' backend on this platform"
            )
        parent = self

        class _Ctx:
            def __enter__(self_inner):
                global _PROCESS_GRAB
                _PROCESS_LOCK.acquire()
                _PROCESS_GRAB = grab  # inherited by the fork below
                self_inner.pool = ProcessPoolExecutor(
                    max_workers=parent.workers,
                    mp_context=multiprocessing.get_context("fork"),
                )
                return _ChunkedSubmit(
                    self_inner.pool, results_q, parent.chunk_size
                )

            def __exit__(self_inner, *exc_info):
                global _PROCESS_GRAB
                try:
                    self_inner.pool.shutdown(wait=True, cancel_futures=True)
                finally:
                    _PROCESS_GRAB = None
                    _PROCESS_LOCK.release()
                return False

        return _Ctx()


class ProfiledScanExecutor(ScanExecutor):
    """Decorator executor feeding per-stage counters to ``--profile``.

    Wraps any backend: the task body is timed in-process around
    ``grab`` (``record_seconds``), and completions are counted
    coordinator-side inside ``expand`` (``record_completed``), which
    fires exactly once per finished task on every backend.  On the
    process backend grab bodies run in forked workers, so their
    seconds accumulate in the child and are lost — task counts stay
    exact there, and the grab seconds column reads zero (probe batches
    run inline in the coordinator, so their seconds are measured;
    documented in ``docs/performance.md``).  The wrapper adds two dict updates per
    task and never touches records, so profiled and unprofiled runs
    stay byte-identical.
    """

    def __init__(self, inner: ScanExecutor, stats):
        self._inner = inner
        self.stats = stats
        self.name = inner.name
        self.workers = inner.workers

    def run(self, tasks, grab, expand) -> ResultList:
        from time import perf_counter

        stats = self.stats

        def timed_grab(task):
            start = perf_counter()
            try:
                return grab(task)
            finally:
                stats.record_seconds(_stage(task), perf_counter() - start)

        def counting_expand(task, record):
            stats.record_completed(_stage(task))
            return expand(task, record)

        return self._inner.run(tasks, timed_grab, counting_expand)


def build_executor(name: str = "serial", workers: int = 1) -> ScanExecutor:
    """Instantiate a backend by name (:data:`EXECUTOR_NAMES`).

    ``workers == 1`` always yields the serial backend — a pool of one
    only adds scheduling overhead and the outputs are identical by
    construction.
    """
    if name not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {name!r}; expected one of {EXECUTOR_NAMES}"
        )
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if name == "serial" or workers == 1:
        return SerialScanExecutor()
    if name == "thread":
        return ThreadScanExecutor(workers)
    return ProcessScanExecutor(workers)


def resolve_executor(
    name: str | None, workers: int | None
) -> tuple[str, int]:
    """Fill in backend/worker-count defaults so neither flag is ignored.

    Asking for parallelism picks a real backend, and picking a real
    backend gets real parallelism:

    * neither given → serial, one worker;
    * ``workers`` > 1 alone → the ``process`` backend (the one that
      actually scales with cores);
    * ``thread``/``process`` alone → one worker per CPU.
    """
    if name is not None and name not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {name!r}; expected one of {EXECUTOR_NAMES}"
        )
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if name is None:
        name = "process" if (workers or 1) > 1 else "serial"
    if workers is None:
        workers = 1 if name == "serial" else (os.cpu_count() or 1)
    return name, workers
