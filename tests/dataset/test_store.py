"""Study-store tests: content addressing, round-trip, poisoning guards.

The central claim: a study that went ``scan → store → load`` is
byte-identical (golden digests) to the in-memory original, and a store
entry that is stale or tampered with can never be silently served.
"""

from __future__ import annotations

import gzip
import json

import pytest

from repro.core.config import StudyConfig
from repro.core.golden import (
    study_digests,
    sweep_digests,
    tiny_spec,
    tiny_study_config,
)
from repro.core.study import Study
from repro.dataset.catalog import StudyCatalog
from repro.dataset.store import (
    META_FILE,
    SNAPSHOT_FILE,
    StoreIntegrityError,
    StudyStore,
    study_key,
)


@pytest.fixture(scope="module")
def stored(tmp_path_factory, serial_tiny_result):
    """A store holding the session's tiny study; returns (store, key).

    Module-scoped: serializing eight sweeps costs a couple of seconds,
    so the read-only tests share one save.  Tests that tamper with the
    entry use ``tampered`` below, which works on a throwaway copy.
    """
    store = StudyStore(tmp_path_factory.mktemp("store-ro") / "store")
    key = store.save(
        serial_tiny_result.config,
        serial_tiny_result.spec,
        serial_tiny_result.snapshots,
    )
    return store, key


@pytest.fixture()
def tampered(stored, tmp_path):
    """A private, mutable copy of the stored entry."""
    import shutil

    source, key = stored
    store = StudyStore(tmp_path / "store")
    shutil.copytree(source.entry_dir(key), store.entry_dir(key))
    return store, key


class TestContentAddressing:
    def test_key_is_stable(self):
        config = tiny_study_config()
        spec = tiny_spec()
        assert study_key(config, spec) == study_key(config, spec)

    def test_key_ignores_executor_and_workers(self):
        """Backends are byte-identical, so they must share one entry."""
        spec = tiny_spec()
        serial = tiny_study_config(executor="serial", workers=1)
        process = tiny_study_config(executor="process", workers=8)
        assert study_key(serial, spec) == study_key(process, spec)

    def test_key_tracks_result_affecting_config(self):
        spec = tiny_spec()
        base = tiny_study_config()
        other = StudyConfig(
            **{**base.__dict__, "noise_hosts": base.noise_hosts + 1}
        )
        assert study_key(base, spec) != study_key(other, spec)

    def test_key_tracks_spec(self):
        config = tiny_study_config()
        assert study_key(config, tiny_spec()) != study_key(
            config, tiny_spec(rows=4)
        )

    def test_fingerprint_prunes_unset_personality(self):
        """Well-behaved rows fingerprint without the sparse field.

        Growing the spec schema with an optional field must not
        invalidate existing stores of well-behaved studies; a set
        personality still keys its own entry.
        """
        from repro.dataset.store import spec_fingerprint

        spec = tiny_spec()
        for row in spec_fingerprint(spec):
            assert "personality" not in row

        from repro.core.golden import tiny_hostile_spec

        hostile = tiny_hostile_spec()
        fingerprinted = {
            row["personality"]
            for row in spec_fingerprint(hostile)
            if "personality" in row
        }
        assert fingerprinted == set(hostile.personality_counts())
        assert study_key(tiny_study_config(), hostile) != study_key(
            tiny_study_config(), spec
        )


class TestRoundTrip:
    def test_load_is_byte_identical(self, stored, serial_tiny_result):
        store, _ = stored
        loaded = store.load(
            serial_tiny_result.config, serial_tiny_result.spec
        )
        assert sweep_digests(loaded) == study_digests(serial_tiny_result)

    def test_study_run_loads_instead_of_scanning(
        self, stored, serial_tiny_result
    ):
        store, _ = stored
        result = Study(tiny_study_config(), spec=tiny_spec()).run(store=store)
        # A loaded result has no environment attached (nothing built).
        assert result._hosts is None and result._timeline is None
        assert study_digests(result) == study_digests(serial_tiny_result)

    def test_store_miss_returns_none(self, tmp_path):
        store = StudyStore(tmp_path / "empty")
        assert store.load(tiny_study_config(), tiny_spec()) is None
        assert not store.contains(tiny_study_config(), tiny_spec())

    def test_contains_and_keys(self, stored, serial_tiny_result):
        store, key = stored
        assert store.contains(
            serial_tiny_result.config, serial_tiny_result.spec
        )
        assert store.keys() == [key]

    def test_meta_records_digests(self, stored, serial_tiny_result):
        store, key = stored
        meta = store.read_meta(key)
        assert meta["per_sweep"] == study_digests(serial_tiny_result)
        assert meta["sweeps"] == len(serial_tiny_result.snapshots)


class TestPoisoningGuards:
    def test_tampered_snapshot_rejected(self, tampered, serial_tiny_result):
        store, key = tampered
        path = store.entry_dir(key) / SNAPSHOT_FILE
        lines = gzip.decompress(path.read_bytes()).decode().splitlines()
        # Flip one record field: an attacker/stale writer changing
        # scan data without updating meta.json must be caught.
        for index, line in enumerate(lines):
            record = json.loads(line)
            if record.get("is_opcua"):
                record["is_opcua"] = False
                lines[index] = json.dumps(record)
                break
        path.write_bytes(
            gzip.compress(("\n".join(lines) + "\n").encode())
        )
        with pytest.raises(StoreIntegrityError, match="digest mismatch"):
            store.load(serial_tiny_result.config, serial_tiny_result.spec)

    def test_truncated_snapshot_file_rejected(
        self, tampered, serial_tiny_result
    ):
        store, key = tampered
        path = store.entry_dir(key) / SNAPSHOT_FILE
        lines = gzip.decompress(path.read_bytes()).decode().splitlines()
        path.write_bytes(
            gzip.compress(("\n".join(lines[:-3]) + "\n").encode())
        )
        with pytest.raises(Exception):  # DatasetFormatError or integrity
            store.load(serial_tiny_result.config, serial_tiny_result.spec)

    def test_schema_version_mismatch_rejected(
        self, tampered, serial_tiny_result
    ):
        store, key = tampered
        meta_path = store.entry_dir(key) / META_FILE
        meta = json.loads(meta_path.read_text())
        meta["schema"] = meta["schema"] + 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreIntegrityError, match="schema"):
            list(store.iter_validated(key))

    def test_half_written_meta_rejected(self, tampered, serial_tiny_result):
        """A crash mid-save must not leave an entry that crashes every
        later run with a raw JSONDecodeError."""
        store, key = tampered
        meta_path = store.entry_dir(key) / META_FILE
        content = meta_path.read_text()
        meta_path.write_text(content[: len(content) // 2])
        with pytest.raises(StoreIntegrityError, match="not valid JSON"):
            store.load(serial_tiny_result.config, serial_tiny_result.spec)

    def test_missing_sweep_in_meta_rejected(
        self, tampered, serial_tiny_result
    ):
        store, key = tampered
        meta_path = store.entry_dir(key) / META_FILE
        meta = json.loads(meta_path.read_text())
        dropped = list(meta["per_sweep"])[-1]
        del meta["per_sweep"][dropped]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StoreIntegrityError):
            store.load(serial_tiny_result.config, serial_tiny_result.spec)


def _rewrite_first_record(path, rewrite) -> None:
    """Replace the first record line of a gzipped snapshot file."""
    lines = gzip.decompress(path.read_bytes()).decode().splitlines()
    lines[1] = rewrite(lines[1])
    path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))


class TestWrongShapeEntries:
    """Complete, valid-JSON store files of the wrong shape fail as
    integrity errors on every read path, not as TypeError or
    AttributeError."""

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda line: "{}",
            lambda line: "[]",
            lambda line: json.dumps({**json.loads(line), "bogus": 1}),
        ],
        ids=["empty-object", "array", "unknown-field"],
    )
    def test_wrong_shape_record_line_rejected(
        self, tampered, serial_tiny_result, rewrite
    ):
        store, key = tampered
        _rewrite_first_record(store.entry_dir(key) / SNAPSHOT_FILE, rewrite)
        with pytest.raises(StoreIntegrityError, match="unreadable"):
            store.load(serial_tiny_result.config, serial_tiny_result.spec)
        with pytest.raises(StoreIntegrityError, match=":2: "):
            StudyCatalog(store).summarize(key)

    @pytest.mark.parametrize("content", ["[]", "42", '"x"'])
    def test_non_object_meta_rejected(
        self, tampered, serial_tiny_result, content
    ):
        store, key = tampered
        (store.entry_dir(key) / META_FILE).write_text(content)
        with pytest.raises(StoreIntegrityError, match="not an object"):
            store.load(serial_tiny_result.config, serial_tiny_result.spec)
        with pytest.raises(StoreIntegrityError, match="not an object"):
            StudyCatalog(store).describe(key)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("config", []),
            ("config", "seed=1"),
            ("per_sweep", ["2020-07-06"]),
            ("per_sweep", 5),
            ("per_sweep", {"2020-07-06": 5}),
            ("digest", 5),
        ],
        ids=[
            "config-array",
            "config-string",
            "per_sweep-array",
            "per_sweep-number",
            "per_sweep-number-digest",
            "digest-number",
        ],
    )
    def test_wrong_type_meta_field_rejected(
        self, tampered, serial_tiny_result, field, value
    ):
        """An object ``meta.json`` whose field has the wrong JSON type
        fails naming the file and the field, not as a TypeError or
        AttributeError out of the reader that indexes it."""
        store, key = tampered
        meta_path = store.entry_dir(key) / META_FILE
        meta = json.loads(meta_path.read_text())
        meta[field] = value
        meta_path.write_text(json.dumps(meta))
        expected = rf"meta\.json field '{field}' is not"
        with pytest.raises(StoreIntegrityError, match=expected):
            store.load(serial_tiny_result.config, serial_tiny_result.spec)
        with pytest.raises(StoreIntegrityError, match=expected):
            StudyCatalog(store).describe(key)
        with pytest.raises(StoreIntegrityError, match=expected):
            StudyCatalog(store).summarize(key)

    @pytest.mark.parametrize(
        "content, expected",
        [
            ("{trunc", "merge.json is not valid JSON"),
            ("[]", "merge.json holds a JSON list, not an object"),
            (
                '{"manifest_digest": 5}',
                "merge.json field 'manifest_digest' is not a string",
            ),
        ],
        ids=["truncated", "array", "digest-number"],
    )
    def test_wrong_shape_merge_manifest_rejected(
        self, tampered, content, expected
    ):
        store, key = tampered
        (store.entry_dir(key) / "merge.json").write_text(content)
        with pytest.raises(StoreIntegrityError, match=expected):
            store.read_merge_manifest(key)
        with pytest.raises(StoreIntegrityError, match=expected):
            StudyCatalog(store).describe(key)


class TestCorpusStore:
    """Content-addressed capture corpora alongside study entries."""

    @pytest.fixture()
    def corpus(self):
        from repro.transport.capture import CaptureCorpus, TargetCapture

        target = TargetCapture(address=167772161, port=4840)
        target.events = [
            {"event": "host", "asn": None, "known": False},
            {"event": "now", "time": "2020-08-30T00:00:00+00:00"},
            {"event": "now", "time": "2020-08-30T00:00:00+00:00"},
            {
                "event": "connect-error",
                "category": "refused",
                "message": "10.0.0.1:4840 refused the connection",
            },
        ]
        return CaptureCorpus(
            meta={"label": "2020-08-30", "probed": 1, "excluded": 0},
            targets=[target],
        )

    def test_save_load_round_trip(self, tmp_path, corpus):
        from repro.dataset.store import StudyStore

        store = StudyStore(tmp_path / "store")
        key = store.save_corpus(corpus)
        assert key == corpus.digest()
        assert store.corpus_keys() == [key]
        loaded = store.load_corpus(key)
        assert loaded.meta == corpus.meta
        assert [t.events for t in loaded.targets] == [
            t.events for t in corpus.targets
        ]

    def test_saving_twice_is_idempotent(self, tmp_path, corpus):
        from repro.dataset.store import StudyStore

        store = StudyStore(tmp_path / "store")
        assert store.save_corpus(corpus) == store.save_corpus(corpus)
        assert len(store.corpus_keys()) == 1

    def test_corpora_invisible_to_study_keys(self, tmp_path, corpus):
        from repro.dataset.store import StudyStore

        store = StudyStore(tmp_path / "store")
        store.save_corpus(corpus)
        assert store.keys() == []

    def test_tampered_corpus_rejected(self, tmp_path, corpus):
        from repro.dataset.store import StudyStore

        store = StudyStore(tmp_path / "store")
        key = store.save_corpus(corpus)
        path = store.corpus_path(key)
        lines = gzip.decompress(path.read_bytes()).decode().splitlines()
        lines[-1] = lines[-1].replace("refused", "accepted")
        path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))
        with pytest.raises(StoreIntegrityError, match="digest mismatch"):
            store.load_corpus(key)

    def test_unknown_corpus_key(self, tmp_path):
        from repro.dataset.store import StudyStore

        store = StudyStore(tmp_path / "store")
        with pytest.raises(KeyError):
            store.load_corpus("0" * 64)


class TestAtomicPublish:
    """Crash-safety of re-saves: an interrupted write must leave the
    entry *absent* (re-runnable), never stale-but-valid-looking.

    Regression guard for the pre-sharding bug: ``save`` used to write
    the snapshot stream directly over an existing entry's file, so a
    crash mid-write left half-new bytes underneath the *old* ``meta``
    — a poisoned entry that failed with ``StoreIntegrityError``
    forever instead of being rescanned.
    """

    def test_crashed_resave_reads_as_absent(
        self, tmp_path, serial_tiny_result, monkeypatch
    ):
        import repro.dataset.store as store_module

        store = StudyStore(tmp_path / "store")
        config, spec = serial_tiny_result.config, serial_tiny_result.spec
        store.save(config, spec, serial_tiny_result.snapshots)
        assert store.load(config, spec) is not None

        def crash_mid_write(path, snapshots):
            path.write_bytes(b"\x1f\x8b half a gzip stream")
            raise RuntimeError("simulated crash mid-write")

        monkeypatch.setattr(store_module, "write_snapshots", crash_mid_write)
        with pytest.raises(RuntimeError, match="simulated crash"):
            store.save(config, spec, serial_tiny_result.snapshots)

        # The half-written re-save must read as "not stored" — the
        # meta that marks an entry complete is gone before any byte of
        # snapshot data moves — so the study simply re-runs.
        assert store.load(config, spec) is None

        monkeypatch.undo()
        store.save(config, spec, serial_tiny_result.snapshots)
        assert study_digests(serial_tiny_result) == sweep_digests(
            store.load(config, spec)
        )

    def test_snapshots_never_written_in_place(
        self, tmp_path, serial_tiny_result, monkeypatch
    ):
        """The stream lands under a temp name and is renamed into
        place — the published path is never open for writing."""
        import repro.dataset.store as store_module

        seen_paths = []
        real_write = store_module.write_snapshots

        def spy(path, snapshots):
            seen_paths.append(path.name)
            return real_write(path, snapshots)

        monkeypatch.setattr(store_module, "write_snapshots", spy)
        store = StudyStore(tmp_path / "store")
        store.save(
            serial_tiny_result.config,
            serial_tiny_result.spec,
            serial_tiny_result.snapshots,
        )
        assert seen_paths == [".tmp." + SNAPSHOT_FILE]
        # The temp name keeps the .gz suffix: the writer picks its
        # codec from the suffix, and a plain-text temp file silently
        # renamed to .gz would poison every later load.
        assert seen_paths[0].endswith(".gz")

    def test_crashed_corpus_save_reads_as_absent(self, tmp_path, monkeypatch):
        from repro.transport import capture as capture_module
        from repro.transport.capture import CaptureCorpus, TargetCapture

        target = TargetCapture(address=167772161, port=4840)
        target.events = [{"event": "host", "asn": None, "known": False}]
        corpus = CaptureCorpus(meta={"label": "x"}, targets=[target])

        store = StudyStore(tmp_path / "store")

        def crash_mid_write(path, corpus):
            path.write_bytes(b"\x1f\x8b half a gzip stream")
            raise RuntimeError("simulated crash mid-write")

        monkeypatch.setattr(capture_module, "write_corpus", crash_mid_write)
        with pytest.raises(RuntimeError, match="simulated crash"):
            store.save_corpus(corpus)
        assert store.corpus_keys() == []

        monkeypatch.undo()
        key = store.save_corpus(corpus)
        assert store.corpus_keys() == [key]
        assert store.load_corpus(key).meta == corpus.meta


class TestSortedListings:
    """``keys()``/``corpus_keys()`` are sorted, not iterdir-ordered.

    ``iterdir`` order is filesystem-dependent (inode order on ext4,
    name order on APFS); `repro runs` output and the catalog's
    registry digest are deterministic across machines only because
    the store sorts.  Entries are planted directly on disk in
    deliberately unsorted creation order so the test cannot pass by
    creation-order accident.
    """

    UNSORTED = ["f" * 64, "0" * 64, "9a" * 32, "33" * 32]

    def test_keys_are_sorted(self, tmp_path):
        store = StudyStore(tmp_path / "store")
        for name in self.UNSORTED:
            entry = store.entry_dir(name)
            entry.mkdir(parents=True)
            (entry / META_FILE).write_text("{}")
        assert store.keys() == sorted(self.UNSORTED)

    def test_corpus_keys_are_sorted(self, tmp_path):
        store = StudyStore(tmp_path / "store")
        for name in self.UNSORTED:
            entry = store.corpus_dir(name)
            entry.mkdir(parents=True)
            (entry / META_FILE).write_text("{}")
        assert store.corpus_keys() == sorted(self.UNSORTED)
        # Corpus entries never leak into the study listing.
        assert store.keys() == []


class TestResolveStore:
    """resolve_store is the one documented reader of REPRO_STUDY_STORE."""

    def test_explicit_path_wins_over_environment(self, tmp_path, monkeypatch):
        from repro.dataset.store import resolve_store

        monkeypatch.setenv("REPRO_STUDY_STORE", str(tmp_path / "env"))
        assert resolve_store(tmp_path / "flag").root == tmp_path / "flag"
        assert resolve_store().root == tmp_path / "env"

    def test_no_configuration_means_no_store(self, monkeypatch):
        from repro.dataset.store import resolve_store

        monkeypatch.delenv("REPRO_STUDY_STORE", raising=False)
        assert resolve_store() is None
