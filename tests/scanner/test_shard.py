"""Sharded campaigns: partition laws, merge determinism, checkpoints.

The contract under test is the tentpole guarantee: a study cut into N
shards — any N, any executor backend, shards run in any order — merges
into snapshots byte-identical to the unsharded golden run.  The merge
unit tests drive :func:`merge_sweep` with synthetic snapshots so the
failure modes (non-partitioning inputs, diverging referenced records,
mixed dates) are pinned independently of the simulator.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import pytest

from repro.core.golden import (
    canonical_json,
    study_digests,
    study_digest,
    sweep_digests,
    tiny_spec,
    tiny_study_config,
)
from repro.core.study import Study, StudyResult
from repro.dataset.store import StudyStore
from repro.netsim.tcpscan import candidate_stream
from repro.scanner.records import HostRecord, MeasurementSnapshot
from repro.scanner.shard import (
    ShardMergeError,
    ShardSpec,
    build_merge_manifest,
    merge_snapshots,
    merge_study_shards,
    merge_sweep,
    run_sharded_study,
    run_study_shard,
)

SHARDS = 3
DIGEST_PATH = (
    Path(__file__).resolve().parents[1] / "golden" / "tiny_study.digest.json"
)


@pytest.fixture(scope="session")
def shard_parts():
    """The tiny study scanned as three independent serial shards."""
    config = tiny_study_config()
    spec = tiny_spec()
    return [
        run_study_shard(config, ShardSpec(index, SHARDS), spec=spec)
        for index in range(SHARDS)
    ]


class TestShardSpec:
    def test_select_is_index_mod(self):
        items = list(range(10))
        assert ShardSpec(0, 3).select(items) == [0, 3, 6, 9]
        assert ShardSpec(1, 3).select(items) == [1, 4, 7]
        assert ShardSpec(2, 3).select(items) == [2, 5, 8]
        assert ShardSpec(0, 1).select(items) == items

    @pytest.mark.parametrize(
        "index, count", [(0, 0), (-1, 2), (2, 2), (5, 3)]
    )
    def test_invalid_specs_rejected(self, index, count):
        with pytest.raises(ValueError):
            ShardSpec(index, count)

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 11])
    def test_shards_partition_any_stream(self, count):
        """Every position lands in exactly one shard, order preserved —
        for any shard count, including counts exceeding the stream."""
        items = [f"c{i}" for i in range(23)]
        slices = [
            ShardSpec(index, count).select(items) for index in range(count)
        ]
        assert sum(len(s) for s in slices) == len(items)
        assert sorted(x for s in slices for x in s) == sorted(items)
        # Round-robin interleave reconstructs the original order.
        rebuilt = []
        for position in range(max(len(s) for s in slices)):
            for s in slices:
                if position < len(s):
                    rebuilt.append(s[position])
        assert rebuilt == items

    def test_partition_of_the_real_candidate_stream(self, serial_tiny_result):
        """The property holds on the actual sweep stream, which is
        what makes the merged counters sum exactly."""
        network = serial_tiny_result.timeline.network_for_sweep(0)
        study = Study(serial_tiny_result.config)
        stream = candidate_stream(
            network,
            4840,
            study._rng.substream("partition-check"),
            extra_candidates=48,
        )
        assert stream  # the property must be tested against something
        for count in (2, 4):
            slices = [
                ShardSpec(index, count).select(stream)
                for index in range(count)
            ]
            assert sorted(x for s in slices for x in s) == sorted(stream)
            assert sum(len(s) for s in slices) == len(stream)


class TestShardedStudyMatchesGolden:
    """The acceptance bar: merged shards == committed golden digests."""

    def test_merged_shards_match_unsharded_run(
        self, shard_parts, serial_tiny_result
    ):
        merged = merge_snapshots(shard_parts)
        assert study_digests(
            StudyResult(
                config=serial_tiny_result.config,
                spec=serial_tiny_result.spec,
                snapshots=merged,
            )
        ) == study_digests(serial_tiny_result)

    def test_merged_shards_match_committed_digests(self, shard_parts):
        """Pinned against the committed file, not just the in-session
        serial run: sharding must reproduce the *historical* bytes."""
        committed = json.loads(DIGEST_PATH.read_text())
        merged = merge_snapshots(shard_parts)
        result = StudyResult(
            config=tiny_study_config(), spec=tiny_spec(), snapshots=merged
        )
        assert study_digests(result) == committed["per_sweep"]
        assert study_digest(result) == committed["digest"]

    def test_merge_is_shard_order_invariant(self, shard_parts):
        reference = merge_snapshots(shard_parts)
        reversed_merge = merge_snapshots(list(reversed(shard_parts)))
        rotated_merge = merge_snapshots(shard_parts[1:] + shard_parts[:1])
        for variant in (reversed_merge, rotated_merge):
            assert [
                canonical_json(s.to_json_dict()) for s in variant
            ] == [canonical_json(s.to_json_dict()) for s in reference]


def _record(ip, port=4840, via_reference=False, error=None):
    return HostRecord(
        ip=ip,
        port=port,
        asn=None,
        timestamp="2020-08-30T00:00:00+00:00",
        tcp_open=True,
        via_reference=via_reference,
        error=error,
    )


def _snapshot(records, probed=0, port_open=0, excluded=0, date="2020-08-30"):
    snapshot = MeasurementSnapshot(
        date=date, probed=probed, port_open=port_open, excluded=excluded
    )
    snapshot.records.extend(records)
    return snapshot


class TestMergeSweep:
    def test_counters_sum_and_records_sort(self):
        merged = merge_sweep(
            [
                _snapshot([_record(5), _record(1)], probed=4, port_open=2),
                _snapshot([_record(3)], probed=3, port_open=1, excluded=1),
            ]
        )
        assert (merged.probed, merged.port_open, merged.excluded) == (7, 3, 1)
        assert [r.ip for r in merged.records] == [1, 3, 5]

    def test_empty_input_rejected(self):
        with pytest.raises(ShardMergeError, match="nothing to merge"):
            merge_sweep([])

    def test_mixed_dates_rejected(self):
        with pytest.raises(ShardMergeError, match="disagree on sweep date"):
            merge_sweep(
                [
                    _snapshot([], date="2020-08-30"),
                    _snapshot([], date="2020-02-09"),
                ]
            )

    def test_duplicate_first_wave_key_rejected(self):
        """Two shards claiming the same first-wave endpoint means the
        inputs never partitioned one candidate stream — merging would
        silently double-count, so it must refuse."""
        with pytest.raises(ShardMergeError, match="do not partition"):
            merge_sweep(
                [_snapshot([_record(7)]), _snapshot([_record(7)])]
            )

    def test_referenced_duplicates_dedup_when_byte_identical(self):
        merged = merge_sweep(
            [
                _snapshot([_record(9, via_reference=True)]),
                _snapshot([_record(9, via_reference=True)]),
            ]
        )
        assert [r.ip for r in merged.records] == [9]
        assert merged.records[0].via_reference

    def test_diverging_referenced_records_rejected(self):
        with pytest.raises(ShardMergeError, match="different referenced"):
            merge_sweep(
                [
                    _snapshot([_record(9, via_reference=True)]),
                    _snapshot(
                        [_record(9, via_reference=True, error="timeout")]
                    ),
                ]
            )

    def test_first_wave_beats_referenced_across_shards(self):
        """Shard A reached 9 via a reference; shard B probed 9 in its
        own slice.  Globally, 9 is first-wave — exactly what an
        unsharded campaign would have recorded."""
        merged = merge_sweep(
            [
                _snapshot([_record(9, via_reference=True)]),
                _snapshot([_record(9), _record(2)]),
            ]
        )
        assert [(r.ip, r.via_reference) for r in merged.records] == [
            (2, False),
            (9, False),
        ]

    def test_sweep_count_mismatch_rejected(self):
        with pytest.raises(ShardMergeError, match="different sweep counts"):
            merge_snapshots([[_snapshot([])], [_snapshot([]), _snapshot([])]])


class TestCheckpointsAndManifest:
    def test_checkpoint_roundtrip(self, tmp_path, shard_parts):
        store = StudyStore(tmp_path)
        config, spec = tiny_study_config(), tiny_spec()
        store.save_shard(config, spec, 1, SHARDS, shard_parts[1])
        loaded = store.load_shard(config, spec, 1, SHARDS)
        assert [canonical_json(s.to_json_dict()) for s in loaded] == [
            canonical_json(s.to_json_dict()) for s in shard_parts[1]
        ]
        # The sibling shard has no checkpoint: None, not an error.
        assert store.load_shard(config, spec, 0, SHARDS) is None

    def test_merge_refuses_missing_checkpoints(self, tmp_path, shard_parts):
        store = StudyStore(tmp_path)
        config, spec = tiny_study_config(), tiny_spec()
        store.save_shard(config, spec, 0, SHARDS, shard_parts[0])
        with pytest.raises(ShardMergeError, match=r"shards \[1, 2\]"):
            merge_study_shards(store, config, SHARDS, spec=spec)

    def test_merge_publishes_entry_and_manifest(self, tmp_path, shard_parts):
        import hashlib

        store = StudyStore(tmp_path)
        config, spec = tiny_study_config(), tiny_spec()
        for index, snapshots in enumerate(shard_parts):
            store.save_shard(config, spec, index, SHARDS, snapshots)
        key = merge_study_shards(store, config, SHARDS, spec=spec)

        # The merged entry is an ordinary store entry: analyses load it
        # with no sharding awareness.
        stored = store.load(config, spec)
        committed = json.loads(DIGEST_PATH.read_text())
        result = StudyResult(config=config, spec=spec, snapshots=stored)
        assert study_digests(result) == committed["per_sweep"]

        manifest = store.read_merge_manifest(key)
        assert manifest["shard_count"] == SHARDS
        assert len(manifest["shards"]) == SHARDS
        assert manifest["merged_digest"] == committed["digest"]
        # The manifest seals itself: re-hashing its canonical JSON
        # (sans the seal) must reproduce the recorded digest.
        unsealed = {
            k: v for k, v in manifest.items() if k != "manifest_digest"
        }
        assert manifest["manifest_digest"] == hashlib.sha256(
            canonical_json(unsealed).encode("utf-8")
        ).hexdigest()

    def test_manifest_digest_covers_every_shard(self, shard_parts):
        merged = merge_snapshots(shard_parts)
        manifest = build_merge_manifest("k", shard_parts, merged)
        per_shard = [entry["digest"] for entry in manifest["shards"]]
        assert len(set(per_shard)) == SHARDS  # shards differ, all recorded
        tampered = build_merge_manifest(
            "k", list(reversed(shard_parts)), merged
        )
        assert tampered["manifest_digest"] != manifest["manifest_digest"]

    def test_resume_skips_valid_checkpoint(
        self, tmp_path, shard_parts, monkeypatch
    ):
        """A validating checkpoint short-circuits before any host is
        built — resume must be near-free for completed shards."""
        store = StudyStore(tmp_path)
        config, spec = tiny_study_config(), tiny_spec()
        store.save_shard(config, spec, 2, SHARDS, shard_parts[2])

        def explode(*args, **kwargs):
            raise AssertionError("resume rebuilt the environment")

        monkeypatch.setattr(Study, "build_environment", explode)
        loaded = run_study_shard(
            config, ShardSpec(2, SHARDS), spec=spec, store=store, resume=True
        )
        assert [canonical_json(s.to_json_dict()) for s in loaded] == [
            canonical_json(s.to_json_dict()) for s in shard_parts[2]
        ]

    def test_resume_rescans_corrupt_checkpoint(self, tmp_path, shard_parts):
        """A half-written checkpoint (the crash this PR recovers from)
        is rescanned, not fatal — and the rescan matches the bytes the
        intact checkpoint would have held."""
        store = StudyStore(tmp_path)
        config, spec = tiny_study_config(), tiny_spec()
        store.save_shard(config, spec, 0, SHARDS, shard_parts[0])
        from repro.dataset.store import study_key

        shard_dir = store.shard_dir(study_key(config, spec), 0, SHARDS)
        snapshot_file = next(shard_dir.glob("snapshots.jsonl*"))
        snapshot_file.write_bytes(b"\x00 not a snapshot stream")
        rescanned = run_study_shard(
            config, ShardSpec(0, SHARDS), spec=spec, store=store, resume=True
        )
        assert [canonical_json(s.to_json_dict()) for s in rescanned] == [
            canonical_json(s.to_json_dict()) for s in shard_parts[0]
        ]

    @pytest.mark.parametrize("corrupt", ["record-line", "meta"])
    def test_resume_rescans_wrong_shape_checkpoint(
        self, tmp_path, shard_parts, corrupt
    ):
        """A checkpoint whose files are valid JSON of the wrong shape
        (a ``{}`` record line, a ``[]`` meta) is rescanned like any
        corrupt one, and the study it merges into keeps the golden
        digests."""
        store = StudyStore(tmp_path)
        config, spec = tiny_study_config(), tiny_spec()
        store.save_shard(config, spec, 0, SHARDS, shard_parts[0])
        from repro.dataset.store import study_key

        shard_dir = store.shard_dir(study_key(config, spec), 0, SHARDS)
        if corrupt == "record-line":
            path = shard_dir / "snapshots.jsonl.gz"
            lines = gzip.decompress(path.read_bytes()).decode().splitlines()
            lines[1] = "{}"
            path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))
        else:
            (shard_dir / "meta.json").write_text("[]")
        rescanned = run_study_shard(
            config, ShardSpec(0, SHARDS), spec=spec, store=store, resume=True
        )
        merged = merge_snapshots([rescanned, *shard_parts[1:]])
        committed = json.loads(DIGEST_PATH.read_text())
        assert sweep_digests(merged) == committed["per_sweep"]

    def test_resume_rescans_checkpoint_of_an_older_schema(
        self, tmp_path, shard_parts, monkeypatch
    ):
        """A checkpoint saved under schema 1, when the candidate stream
        was still shuffled, holds a slice this code does not cut; it is
        never resumed, and the study merges to the golden digests."""
        import repro.dataset.store as store_module

        store = StudyStore(tmp_path)
        config, spec = tiny_study_config(), tiny_spec()
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "SCHEMA_VERSION", 1)
            # Deliberately wrong bytes in slot 0, as a slice cut under
            # another stream order would be: shard 1's valid snapshots.
            store.save_shard(config, spec, 0, SHARDS, shard_parts[1])
        for index in (1, 2):
            store.save_shard(config, spec, index, SHARDS, shard_parts[index])
        rescanned = run_study_shard(
            config, ShardSpec(0, SHARDS), spec=spec, store=store, resume=True
        )
        assert sweep_digests(rescanned) == sweep_digests(shard_parts[0])
        merge_study_shards(store, config, SHARDS, spec=spec)
        committed = json.loads(DIGEST_PATH.read_text())
        merged = store.load(config, spec)
        assert sweep_digests(merged) == committed["per_sweep"]

    def test_run_sharded_study_end_to_end(self, tmp_path):
        """Driver loop: scan all shards, merge, publish, and a second
        --resume invocation returns the stored entry untouched."""
        store = StudyStore(tmp_path)
        config, spec = tiny_study_config(), tiny_spec()
        result = run_sharded_study(
            config, 2, spec=spec, store=store, resume=False
        )
        committed = json.loads(DIGEST_PATH.read_text())
        assert study_digests(result) == committed["per_sweep"]

        resumed = run_sharded_study(
            config, 2, spec=spec, store=store, resume=True
        )
        assert study_digests(resumed) == committed["per_sweep"]
