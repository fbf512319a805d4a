"""Content-addressed, versioned on-disk store for study results.

Running the full eight-sweep study costs minutes; every one of the
paper's analyses consumes nothing but the resulting snapshot sequence.
The store decouples the two: ``Study.run(store=...)`` writes the
snapshots once, and any later invocation — another experiment, the
benchmark suite, ``repro analyze``, a CI job — loads them instead of
re-scanning.

Entries are *content-addressed*: the key is a SHA-256 digest over

* the result-affecting :class:`~repro.core.config.StudyConfig` fields
  (``executor``/``workers``/``probe_batch_size`` are excluded — they
  change wall-clock time, never snapshot bytes, so a study scanned
  with the process backend serves serial callers and vice versa);
* every row of the :class:`~repro.deployments.spec.PopulationSpec`;
* :data:`SCHEMA_VERSION`, bumped whenever the record schema or the
  scan semantics change — old entries then simply stop matching
  instead of being misread.

Each entry persists its golden digests (per-sweep and whole-study,
the same SHA-256s ``tests/golden`` pins) in ``meta.json``.  The
writer hashes them from the canonical record lines it writes, and
:meth:`StudyStore.load` hashes the record lines it reads back in the
pass that decodes them (:func:`~repro.dataset.io.iter_snapshots`) —
a corrupted, hand-edited, re-serialised or stale entry can never
silently poison an analysis; it raises :class:`StoreIntegrityError`
instead.

Layout::

    <root>/<key>/meta.json           # config, spec summary, digests
    <root>/<key>/snapshots.jsonl.gz  # dataset/io.py JSONL, gzipped

The store also holds **capture corpora** (recorded live scans — see
:mod:`repro.transport.capture`), content-addressed by the SHA-256 of
their canonical corpus bytes::

    <root>/corpora/<key>/corpus.jsonl.gz
    <root>/corpora/<key>/meta.json

Corpus keys never collide with study keys: corpora live under their
own subdirectory, which carries no top-level ``meta.json`` and is
therefore invisible to :meth:`StudyStore.keys`.

**Shard checkpoints** (see :mod:`repro.scanner.shard`) follow the
same pattern one level deeper: a sharded campaign persists each
finished shard under::

    <root>/shards/<study-key>/<index>-of-<count>/snapshots.jsonl.gz
    <root>/shards/<study-key>/<index>-of-<count>/meta.json

with the same write-data-first/publish-meta-last protocol and the
same digest validation on load, so ``--resume`` can trust (and a
corrupted checkpoint can never poison) a restarted campaign.  The
merge step records a ``merge.json`` manifest next to the merged
entry's ``meta.json`` naming every shard digest that went into it.

Every (re-)write in this module is *atomic*: data files land under a
temporary name and are ``os.replace``d into place, and a re-save over
an existing entry retracts the old ``meta.json`` first — at no point
does a live meta describe half-written bytes, so the worst a crash
can leave behind is an incomplete-looking entry that is simply
re-scanned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Iterator

from repro.core.config import StudyConfig
from repro.core.golden import canonical_json, combined_digest
# Bound here for callers that look them up on this module (the traced
# benchmark run wraps both); the store itself hashes the stored lines.
from repro.core.golden import snapshot_digest as snapshot_digest
from repro.core.golden import sweep_digests as sweep_digests
from repro.dataset.io import (
    DatasetFormatError,
    iter_snapshots,
    write_snapshots,
)
from repro.deployments.spec import PopulationSpec
from repro.scanner.records import MeasurementSnapshot

#: Version of the stored byte format *and* of the scan semantics that
#: produced it.  Bump on any change to the record schema, the snapshot
#: digest definition, or the scan pipeline's output — every existing
#: key then stops matching and studies are transparently re-run.
#: Version 2: the candidate stream lost its shuffle, which moves every
#: index-mod shard slice, so no shard checkpoint of version 1 may be
#: merged with one cut under the new order.
#: Version 3: record lines are written in canonical JSON and loads
#: hash their bytes, so a version-2 entry (``", "`` separators, keys
#: in field order) would fail every digest; it is rescanned instead.
SCHEMA_VERSION = 3

#: Environment variable naming the default store directory.  Used by
#: :func:`resolve_store` so CI and benchmarks opt whole process trees
#: into the store without threading a path through every call site.
STORE_ENV = "REPRO_STUDY_STORE"

SNAPSHOT_FILE = "snapshots.jsonl.gz"
META_FILE = "meta.json"
CORPUS_DIR = "corpora"
CORPUS_FILE = "corpus.jsonl.gz"
SHARDS_DIR = "shards"
MERGE_MANIFEST_FILE = "merge.json"

#: StudyConfig fields that never change snapshot bytes (executor
#: choice and task granularity) — excluded from the content key.
_NON_RESULT_FIELDS = frozenset({"executor", "workers", "probe_batch_size"})


class StoreIntegrityError(RuntimeError):
    """A store entry exists but fails digest/shape validation."""


#: Fields the readers index or slice without looking, and what each
#: must be wherever a metadata file holds it.
_FIELD_SHAPES = {
    "config": ("an object", lambda value: isinstance(value, dict)),
    "per_sweep": (
        "an object of digest strings",
        lambda value: isinstance(value, dict)
        and all(isinstance(digest, str) for digest in value.values()),
    ),
    "digest": ("a string", lambda value: isinstance(value, str)),
    "manifest_digest": ("a string", lambda value: isinstance(value, str)),
}


def _read_meta_file(path: Path, label: str, remedy: str) -> dict:
    """Parse one ``meta.json`` or ``merge.json``.

    Anything but a JSON object, or an object with a field of the wrong
    shape (:data:`_FIELD_SHAPES`), fails validation, naming the entry,
    the file, the field and how to recover.
    """
    try:
        meta = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise StoreIntegrityError(
            f"{label}: {path.name} is not valid JSON ({exc}) — {remedy}"
        ) from None
    if not isinstance(meta, dict):
        raise StoreIntegrityError(
            f"{label}: {path.name} holds a JSON {type(meta).__name__}, "
            f"not an object — {remedy}"
        )
    for field, (shape, valid) in _FIELD_SHAPES.items():
        if field in meta and not valid(meta[field]):
            raise StoreIntegrityError(
                f"{label}: {path.name} field {field!r} is not {shape} "
                f"— {remedy}"
            )
    return meta


def config_key_fields(config: StudyConfig) -> dict:
    """The config as a dict of result-affecting fields only."""
    return {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(config)
        if field.name not in _NON_RESULT_FIELDS
    }


def spec_fingerprint(spec: PopulationSpec) -> list[dict]:
    """Every spec row as plain JSON (enums are ints, tuples lists).

    Sparse row fields (``personality``) are pruned when unset, the
    same idiom as the record schema: a well-behaved row fingerprints
    identically whether or not the field exists, so growing the spec
    schema does not invalidate stores of well-behaved studies.
    """
    rows = []
    for row in spec.rows:
        fields = dataclasses.asdict(row)
        if fields["personality"] is None:
            del fields["personality"]
        rows.append(fields)
    return rows


def study_key(config: StudyConfig, spec: PopulationSpec) -> str:
    """Content digest identifying one study's inputs."""
    material = canonical_json(
        {
            "schema": SCHEMA_VERSION,
            "config": config_key_fields(config),
            "spec": spec_fingerprint(spec),
        }
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def resolve_store(path: str | Path | None = None) -> "StudyStore | None":
    """Resolve the ambient store: explicit path, else :data:`STORE_ENV`.

    This is the *one* place the environment variable is consulted —
    every consumer (the CLI's ``--store`` flag,
    :func:`~repro.core.study.default_study_result`, the catalog layer)
    funnels through here, so "which store am I using?" always has a
    single answer.  Returns ``None`` when neither names a directory —
    callers then run without persistence, exactly as before the store
    existed.

        >>> import os
        >>> saved = os.environ.pop(STORE_ENV, None)
        >>> resolve_store() is None
        True
        >>> resolve_store("/tmp/some-store").root
        PosixPath('/tmp/some-store')
        >>> os.environ[STORE_ENV] = "/tmp/env-store"
        >>> resolve_store().root
        PosixPath('/tmp/env-store')
        >>> del os.environ[STORE_ENV]
        >>> if saved is not None:
        ...     os.environ[STORE_ENV] = saved
    """
    if path is None:
        path = os.environ.get(STORE_ENV) or None
    if path is None:
        return None
    return StudyStore(path)


class StudyStore:
    """A directory of content-addressed study entries.

    A fresh store is empty::

        >>> import tempfile
        >>> store = StudyStore(tempfile.mkdtemp())
        >>> store.keys()
        []
        >>> store.corpus_keys()
        []
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # --- key plumbing ------------------------------------------------------

    def entry_dir(self, key: str) -> Path:
        return self.root / key

    def contains(self, config: StudyConfig, spec: PopulationSpec) -> bool:
        key = study_key(config, spec)
        return (self.entry_dir(key) / META_FILE).exists()

    def keys(self) -> list[str]:
        """Every study-entry key, in sorted order.

        ``iterdir`` order is filesystem-dependent (inode order on
        ext4, name order on APFS); sorting here is what makes
        ``repro runs`` output — and the catalog's registry digest —
        identical on every machine.
        """
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if (entry / META_FILE).exists()
        )

    def read_meta(self, key: str) -> dict:
        entry = self.entry_dir(key)
        return _read_meta_file(
            entry / META_FILE,
            f"store entry {key}",
            f"delete {entry} and re-run the study",
        )

    # --- writing -----------------------------------------------------------

    def _publish(
        self,
        entry: Path,
        snapshots: list[MeasurementSnapshot],
        meta: dict,
    ) -> None:
        """Atomically (re-)write one entry: data first, meta last.

        ``meta`` gains the ``digest`` and ``per_sweep`` fields, hashed
        from the record lines as they are written.

        Re-saving over an existing entry retracts its ``meta.json``
        *before* touching the snapshot file — otherwise a crash
        mid-rewrite leaves a complete-looking entry whose bytes no
        longer match its digests (a ``StoreIntegrityError`` on the
        next load, instead of the rescan an incomplete entry gets).
        The snapshot bytes land under a temporary name (kept on a
        ``.gz`` suffix so compression is unchanged) and are
        ``os.replace``d into place, and the meta file is published the
        same way, so neither file is ever observable half-written.
        """
        entry.mkdir(parents=True, exist_ok=True)
        (entry / META_FILE).unlink(missing_ok=True)
        temp_snapshots = entry / (".tmp." + SNAPSHOT_FILE)
        per_sweep = write_snapshots(temp_snapshots, snapshots)
        os.replace(temp_snapshots, entry / SNAPSHOT_FILE)
        meta = {
            **meta,
            "digest": combined_digest(per_sweep),
            "per_sweep": per_sweep,
        }
        temp_meta = entry / (META_FILE + ".tmp")
        temp_meta.write_text(json.dumps(meta, indent=2) + "\n")
        os.replace(temp_meta, entry / META_FILE)

    def save(
        self,
        config: StudyConfig,
        spec: PopulationSpec,
        snapshots: list[MeasurementSnapshot],
    ) -> str:
        """Persist one finished study; returns the entry key.

        The snapshot file is written first and ``meta.json`` last (see
        :meth:`_publish`), so a crashed write never leaves an entry
        that looks complete — ``contains``/``load`` key off the meta
        file.
        """
        key = study_key(config, spec)
        meta = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "config": {
                field.name: getattr(config, field.name)
                for field in dataclasses.fields(config)
            },
            "spec_rows": len(spec.rows),
            "spec_servers": spec.total_servers,
            "sweeps": len(snapshots),
            "records": sum(len(s.records) for s in snapshots),
        }
        self._publish(self.entry_dir(key), snapshots, meta)
        return key

    # --- reading -----------------------------------------------------------

    def load(
        self, config: StudyConfig, spec: PopulationSpec
    ) -> list[MeasurementSnapshot] | None:
        """Load and validate the entry for ``(config, spec)``.

        ``None`` means "not stored" (including a schema-version
        mismatch, which by construction cannot produce this key).
        Every snapshot's stored record lines are hashed as they are
        decoded and checked against the digests recorded at save
        time; any drift — truncated file, stale entry, hand edit, a
        line re-serialised to other bytes, schema skew — raises
        :class:`StoreIntegrityError`.
        """
        key = study_key(config, spec)
        if not (self.entry_dir(key) / META_FILE).exists():
            return None
        return list(self.iter_validated(key))

    def iter_validated(self, key: str) -> Iterator[MeasurementSnapshot]:
        """Stream one entry's snapshots, validating digests as they go.

        The streaming shape means a consumer that only needs the first
        sweeps (or processes sweeps one at a time) pays for exactly
        what it reads — the final whole-study digest check happens on
        exhaustion, when every per-sweep digest has already matched.
        """
        entry = self.entry_dir(key)
        meta = self.read_meta(key)
        yield from self._iter_validated_entry(entry, meta, f"store entry {key}")

    def _iter_validated_entry(
        self, entry: Path, meta: dict, label: str
    ) -> Iterator[MeasurementSnapshot]:
        """Digest-validating snapshot stream shared by entries and shards."""
        if meta.get("schema") != SCHEMA_VERSION:
            raise StoreIntegrityError(
                f"{label} has schema {meta.get('schema')!r}, "
                f"this code expects {SCHEMA_VERSION}"
            )
        expected: dict[str, str] = meta.get("per_sweep", {})
        expected_dates = list(expected)
        seen: dict[str, str] = {}
        path = entry / SNAPSHOT_FILE
        digests: list[str] = []
        snapshot_iter = iter_snapshots(path, digests)
        while True:
            try:
                snapshot = next(snapshot_iter)
            except StopIteration:
                break
            except DatasetFormatError as exc:
                # Undecodable bytes (a crash mid-write, a truncated
                # gzip stream) are the same integrity failure as a
                # digest mismatch — surface them as one error class so
                # resume logic can treat "corrupt" uniformly.
                raise StoreIntegrityError(
                    f"{label}: snapshot stream unreadable ({exc})"
                ) from None
            position = len(seen)
            if (
                position >= len(expected_dates)
                or snapshot.date != expected_dates[position]
            ):
                raise StoreIntegrityError(
                    f"{label}: unexpected sweep "
                    f"{snapshot.date!r} at position {position} "
                    f"(expected {expected_dates[position:position + 1]})"
                )
            digest = digests[-1]
            if digest != expected[snapshot.date]:
                raise StoreIntegrityError(
                    f"{label}: sweep {snapshot.date} digest "
                    f"mismatch (stored {expected[snapshot.date][:12]}…, "
                    f"hashed {digest[:12]}…) — the entry is stale "
                    "or corrupted; delete it and re-run the study"
                )
            seen[snapshot.date] = digest
            yield snapshot
        if len(seen) != len(expected_dates):
            raise StoreIntegrityError(
                f"{label}: file holds {len(seen)} sweeps, "
                f"meta.json declares {len(expected_dates)}"
            )
        if combined_digest(seen) != meta.get("digest"):
            raise StoreIntegrityError(f"{label}: whole-study digest mismatch")

    # --- shard checkpoints -------------------------------------------------

    def shard_dir(self, key: str, index: int, count: int) -> Path:
        return self.root / SHARDS_DIR / key / f"{index:04d}-of-{count:04d}"

    def save_shard(
        self,
        config: StudyConfig,
        spec: PopulationSpec,
        index: int,
        count: int,
        snapshots: list[MeasurementSnapshot],
    ) -> str:
        """Checkpoint one finished shard of a sharded campaign.

        Shards live under ``shards/<study-key>/`` — outside the
        content-addressed namespace :meth:`keys` enumerates — and use
        the same atomic data-first/meta-last publish as whole studies,
        so a kill mid-checkpoint leaves a rescan-able partial, never a
        complete-looking corrupt one.
        """
        key = study_key(config, spec)
        meta = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "shard_index": index,
            "shard_count": count,
            "sweeps": len(snapshots),
            "records": sum(len(s.records) for s in snapshots),
        }
        self._publish(self.shard_dir(key, index, count), snapshots, meta)
        return key

    def load_shard(
        self,
        config: StudyConfig,
        spec: PopulationSpec,
        index: int,
        count: int,
    ) -> list[MeasurementSnapshot] | None:
        """Load and validate one shard checkpoint; ``None`` if absent.

        Validation is identical to :meth:`load` — every snapshot's
        stored lines are hashed against the digests recorded at
        checkpoint time, and the meta must claim exactly this
        ``(index, count)`` slot, so a checkpoint mis-filed (or copied)
        across shard geometries can never be resumed as the wrong
        slice.
        """
        key = study_key(config, spec)
        entry = self.shard_dir(key, index, count)
        label = f"shard {index}/{count} of {key}"
        if not (entry / META_FILE).exists():
            return None
        meta = _read_meta_file(
            entry / META_FILE, label, f"delete {entry} and re-run the shard"
        )
        if (meta.get("shard_index"), meta.get("shard_count")) != (index, count):
            raise StoreIntegrityError(
                f"{label}: meta claims shard "
                f"{meta.get('shard_index')}/{meta.get('shard_count')}"
            )
        return list(self._iter_validated_entry(entry, meta, label))

    # --- merge manifests ---------------------------------------------------

    def write_merge_manifest(self, key: str, manifest: dict) -> Path:
        """Publish the merge manifest beside a merged entry's meta.

        Extra files in an entry directory are invisible to
        :meth:`load`, so the manifest is pure provenance: which shard
        digests were reassembled into the canonical snapshots (see
        :func:`repro.scanner.shard.merge_study_shards`).
        """
        entry = self.entry_dir(key)
        entry.mkdir(parents=True, exist_ok=True)
        temp = entry / (MERGE_MANIFEST_FILE + ".tmp")
        temp.write_text(json.dumps(manifest, indent=2) + "\n")
        path = entry / MERGE_MANIFEST_FILE
        os.replace(temp, path)
        return path

    def read_merge_manifest(self, key: str) -> dict | None:
        entry = self.entry_dir(key)
        path = entry / MERGE_MANIFEST_FILE
        if not path.exists():
            return None
        return _read_meta_file(
            path,
            f"store entry {key}",
            f"delete {entry} and re-merge the shards",
        )

    # --- capture corpora ---------------------------------------------------

    def corpus_dir(self, key: str) -> Path:
        return self.root / CORPUS_DIR / key

    def corpus_keys(self) -> list[str]:
        """Every capture-corpus key, in sorted order (see :meth:`keys`)."""
        corpora = self.root / CORPUS_DIR
        if not corpora.is_dir():
            return []
        return sorted(
            entry.name
            for entry in corpora.iterdir()
            if (entry / META_FILE).exists()
        )

    def corpus_path(self, key: str) -> Path:
        return self.corpus_dir(key) / CORPUS_FILE

    def save_corpus(self, corpus) -> str:
        """Persist a capture corpus; returns its content key.

        The key is the corpus digest (SHA-256 over the canonical JSONL
        lines — see
        :meth:`repro.transport.capture.CaptureCorpus.digest`), so
        saving the same recording twice lands on the same entry, and a
        tampered entry can never pass :meth:`load_corpus`.
        """
        from repro.transport.capture import write_corpus

        key = corpus.digest()
        entry = self.corpus_dir(key)
        if (entry / META_FILE).exists():
            # Content-addressed: an existing entry holds these exact
            # bytes already.  Returning early keeps a re-save from
            # rewriting a good recording in place (a crash mid-write
            # would corrupt an entry whose meta marks it complete —
            # and a live recording can never be reproduced).
            return key
        entry.mkdir(parents=True, exist_ok=True)
        # Same protocol as _publish: corpus bytes land under a
        # temporary .gz name, replaced into place before the meta that
        # marks them complete is published.
        temp_corpus = entry / (".tmp." + CORPUS_FILE)
        write_corpus(temp_corpus, corpus)
        os.replace(temp_corpus, entry / CORPUS_FILE)
        meta = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "targets": len(corpus.targets),
            "label": corpus.meta.get("label"),
        }
        temp = entry / (META_FILE + ".tmp")
        temp.write_text(json.dumps(meta, indent=2) + "\n")
        os.replace(temp, entry / META_FILE)
        return key

    def load_corpus(self, key: str):
        """Load one corpus, re-verifying its content digest.

        Raises :class:`StoreIntegrityError` on digest drift (a stale,
        truncated, or hand-edited entry) and :class:`KeyError` for an
        unknown key.
        """
        from repro.transport.capture import read_corpus

        path = self.corpus_path(key)
        if not path.exists():
            raise KeyError(f"no capture corpus {key!r} under {self.root}")
        corpus = read_corpus(path)
        digest = corpus.digest()
        if digest != key:
            raise StoreIntegrityError(
                f"capture corpus {key}: content digest mismatch "
                f"(recomputed {digest[:12]}…) — the entry is corrupted; "
                "delete it and re-record"
            )
        return corpus
