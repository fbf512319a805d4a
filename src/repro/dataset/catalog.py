"""Read-side facade over the study store: registry, folds, diffs.

The :class:`~repro.dataset.store.StudyStore` grew its surface
organically around the *write* path (``save``/``save_shard``/
``write_merge_manifest``…).  :class:`StudyCatalog` is the consolidated
*read* API the CLI, the experiments, and the pack exporter use
instead of poking at ``keys``/``read_meta``/``read_merge_manifest``
directly:

* **run registry** — :meth:`list_runs` / :meth:`describe` turn entry
  metadata (plus shard-merge manifests, when present) into
  :class:`RunInfo` rows; :meth:`registry_digest` pins the whole
  listing so ``repro runs`` output is checkably identical across
  machines;
* **streaming aggregation** — :meth:`summarize` folds an entry's
  digest-validated snapshot stream into a
  :class:`~repro.analysis.diff.StudySummary` one sweep at a time,
  so million-record studies never fully materialize;
* **diffing** — :meth:`diff` fans two summarize folds through any
  :class:`~repro.scanner.executor.ScanExecutor` backend and compares
  them into a digest-pinned
  :class:`~repro.analysis.diff.StudyDiff` (byte-identical on
  serial/thread/process, because the folds are pure functions of the
  stored snapshot bytes).

    >>> import tempfile
    >>> from repro.core.config import StudyConfig
    >>> from repro.dataset.store import StudyStore
    >>> from repro.deployments.spec import PopulationSpec
    >>> from repro.scanner.records import HostRecord, MeasurementSnapshot
    >>> store = StudyStore(tempfile.mkdtemp())
    >>> sweep = MeasurementSnapshot(date="2020-07-06", records=[
    ...     HostRecord(ip=1, port=4840, asn=None, timestamp="2020-07-06",
    ...                tcp_open=True, is_opcua=True)])
    >>> key = store.save(StudyConfig(seed=1), PopulationSpec(), [sweep])
    >>> catalog = StudyCatalog(store)
    >>> run, = catalog.list_runs()
    >>> run.key == key, run.sweeps, run.sweep_dates
    (True, 1, ('2020-07-06',))
    >>> catalog.describe(key).records
    1
    >>> catalog.summarize(key).final_stats.servers
    1
    >>> catalog.diff(key, key).is_empty()
    True
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.analysis.diff import StudyDiff, StudySummary, diff_summaries, summarize_stream
from repro.dataset.store import StoreIntegrityError, StudyStore, resolve_store
from repro.scanner.executor import ScanExecutorError, build_executor
from repro.scanner.records import MeasurementSnapshot


@dataclass(frozen=True)
class RunInfo:
    """One stored study as the run registry presents it.

    A plain-data projection of ``meta.json`` (and, for merged sharded
    campaigns, ``merge.json``): everything ``repro runs`` prints and
    nothing that requires decoding snapshot bytes.
    """

    key: str
    seed: int
    sweeps: int
    records: int
    sweep_dates: tuple[str, ...]
    digest: str
    spec_rows: int
    spec_servers: int
    config: dict
    #: Shard-merge provenance from ``merge.json``; ``None`` for
    #: studies scanned in one piece.
    merge: dict | None = None

    @property
    def merged_from_shards(self) -> int | None:
        if self.merge is None:
            return None
        return self.merge.get("shard_count")


@dataclass(frozen=True)
class _SummarizeTask:
    """One "fold this entry" work item for a :class:`ScanExecutor`.

    The executor protocol dedups by ``key`` — so a self-diff
    (``diff(k, k)``) submits one task, not two, and the caller maps
    results back by entry key.
    """

    root: str
    entry: str

    stage = 1

    @property
    def key(self) -> tuple[str, str]:
        return ("summarize", self.entry)


def _summarize_entry(task: _SummarizeTask) -> StudySummary:
    """Executor grab function: stream-fold one store entry.

    Module-level and self-contained (the store is reopened from the
    task's root path) so every backend — including fork workers —
    computes the identical pure function of the on-disk bytes.
    """
    store = StudyStore(task.root)
    return summarize_stream(store.iter_validated(task.entry), label=task.entry)


class StudyCatalog:
    """The read-side API over a :class:`StudyStore` directory.

    Construct from a store, or :meth:`open` the ambient one (the
    ``--store`` flag / ``REPRO_STUDY_STORE`` environment variable via
    :func:`~repro.dataset.store.resolve_store`).
    """

    def __init__(self, store: StudyStore):
        self.store = store

    @classmethod
    def open(cls, path: str | Path | None = None) -> "StudyCatalog | None":
        """Catalog over the resolved ambient store; ``None`` if none."""
        store = resolve_store(path)
        if store is None:
            return None
        return cls(store)

    @property
    def root(self) -> Path:
        return self.store.root

    # --- run registry ------------------------------------------------------

    def keys(self) -> list[str]:
        """Every study key, sorted (see :meth:`StudyStore.keys`)."""
        return self.store.keys()

    def corpus_keys(self) -> list[str]:
        """Every capture-corpus key, sorted."""
        return self.store.corpus_keys()

    def describe(self, key: str) -> RunInfo:
        """The registry row for one stored study.

        Raises :class:`KeyError` for an unknown key;
        :class:`~repro.dataset.store.StoreIntegrityError` propagates
        from a corrupt ``meta.json``.
        """
        if not (self.store.entry_dir(key) / "meta.json").exists():
            raise KeyError(f"no stored study {key!r} under {self.root}")
        meta = self.store.read_meta(key)
        config = meta.get("config", {})
        return RunInfo(
            key=key,
            seed=config.get("seed", 0),
            sweeps=meta.get("sweeps", 0),
            records=meta.get("records", 0),
            sweep_dates=tuple(meta.get("per_sweep", {})),
            digest=meta.get("digest", ""),
            spec_rows=meta.get("spec_rows", 0),
            spec_servers=meta.get("spec_servers", 0),
            config=config,
            merge=self.store.read_merge_manifest(key),
        )

    def list_runs(self) -> list[RunInfo]:
        """Every stored study, in sorted key order."""
        return [self.describe(key) for key in self.keys()]

    def registry_digest(self) -> str:
        """SHA-256 over the canonical JSON of the whole listing.

        Two machines holding the same entries print the same
        ``repro runs`` table *and* the same digest — the quick "are
        our stores in sync?" check.
        """
        from repro.analysis.pipeline import jsonify
        from repro.core.golden import canonical_json

        material = canonical_json(jsonify(self.list_runs()))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    # --- streaming reads ---------------------------------------------------

    def iter_validated(self, key: str) -> Iterator[MeasurementSnapshot]:
        """Digest-validating snapshot stream for one entry."""
        return self.store.iter_validated(key)

    def summarize(self, key: str) -> StudySummary:
        """Stream-fold one study; peak memory stays bounded by one
        decoded snapshot plus the compact per-endpoint state map."""
        return summarize_stream(self.iter_validated(key), label=key)

    # --- diffing -----------------------------------------------------------

    def diff(
        self,
        key_a: str,
        key_b: str,
        *,
        executor: str = "serial",
        workers: int = 1,
    ) -> StudyDiff:
        """Diff two stored studies, folding both through an executor.

        The two summarize folds are independent pure tasks, so they
        fan out through any backend; the comparison itself is
        deterministic, making the resulting
        :meth:`~repro.analysis.diff.StudyDiff.digest` byte-identical
        across serial/thread/process.
        """
        for key in dict.fromkeys((key_a, key_b)):
            # Fail with the registry's KeyError before spawning workers.
            self.describe(key)
        pool = build_executor(executor, workers)
        tasks = [
            _SummarizeTask(root=str(self.root), entry=key)
            for key in dict.fromkeys((key_a, key_b))
        ]
        try:
            results = pool.run(
                tasks, _summarize_entry, lambda task, result: ()
            )
        except ScanExecutorError as exc:
            # A pooled backend wraps what its worker raised; a corrupt
            # entry fails the same way on every backend.
            if isinstance(exc.cause, StoreIntegrityError):
                raise exc.cause from None
            raise
        completed = {task.entry: summary for task, summary in results}
        return diff_summaries(completed[key_a], completed[key_b])

    # --- full materialization (the pack exporter's read path) --------------

    def result_for(self, key: str):
        """A :class:`~repro.core.study.StudyResult` for a stored entry.

        Reconstructs the :class:`~repro.core.config.StudyConfig` from
        the entry's meta and attaches the default
        :class:`~repro.deployments.spec.PopulationSpec` when it
        content-addresses to this key (i.e. the entry *is* a
        default-population study); reduced-population entries get
        ``spec=None`` — every registered analysis reads only
        snapshots, so they are unaffected.

        This is the one catalog method that materializes all
        snapshots; the diff/summarize paths never do.
        """
        from repro.core.config import StudyConfig
        from repro.core.study import StudyResult
        from repro.dataset.store import study_key
        from repro.deployments.spec import build_default_spec

        info = self.describe(key)
        config = StudyConfig(**info.config)
        spec = build_default_spec()
        if study_key(config, spec) != key:
            spec = None
        snapshots = list(self.iter_validated(key))
        return StudyResult(config=config, spec=spec, snapshots=snapshots)
