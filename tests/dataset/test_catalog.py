"""StudyCatalog tests: registry, streaming folds, cross-backend diffs.

The catalog is the read-side API over the store, so the properties
pinned here are the ones `repro runs`/`repro diff` sell: listings are
deterministic, folds stream (peak memory bounded — asserted with
tracemalloc), and a diff's digest is byte-identical on every executor
backend.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.config import StudyConfig
from repro.dataset.catalog import StudyCatalog
from repro.dataset.store import StudyStore
from repro.deployments.spec import PopulationSpec
from repro.scanner.records import (
    EndpointRecord,
    HostRecord,
    MeasurementSnapshot,
)

_POLICY = "http://opcfoundation.org/UA/SecurityPolicy#Basic256Sha256"


def server(ip: int, date: str, software: str = "1.0") -> HostRecord:
    return HostRecord(
        ip=ip,
        port=4840,
        asn=1,
        timestamp=date,
        tcp_open=True,
        is_opcua=True,
        software_version=software,
        endpoints=[
            EndpointRecord(
                endpoint_url=None,
                security_mode=3,
                security_policy_uri=_POLICY,
            )
        ],
        # Bulk the record up so snapshot memory dwarfs the fold's
        # compact per-endpoint state (the memory-bound test relies on
        # a realistic record-to-state size ratio).
        namespaces=[f"urn:namespace:{ip}:{i}" for i in range(20)],
    )


def study(dates: list[str], ips: range) -> list[MeasurementSnapshot]:
    return [
        MeasurementSnapshot(
            date=date, records=[server(ip, date) for ip in ips]
        )
        for date in dates
    ]


def save(store: StudyStore, seed: int, snapshots) -> str:
    return store.save(StudyConfig(seed=seed), PopulationSpec(), snapshots)


@pytest.fixture()
def catalog(tmp_path):
    return StudyCatalog(StudyStore(tmp_path / "store"))


@pytest.fixture()
def two_studies(catalog):
    key_a = save(catalog.store, 1, study(["2020-07-06"], range(1, 40)))
    key_b = save(catalog.store, 2, study(["2020-08-30"], range(20, 60)))
    return key_a, key_b


class TestRegistry:
    def test_list_runs_in_sorted_key_order(self, catalog, two_studies):
        runs = catalog.list_runs()
        assert [r.key for r in runs] == sorted(two_studies)
        assert all(r.records == 39 or r.records == 40 for r in runs)
        assert all(r.merge is None for r in runs)

    def test_describe_exposes_meta_fields(self, catalog, two_studies):
        key_a, _ = two_studies
        info = catalog.describe(key_a)
        assert info.key == key_a
        assert info.seed == 1
        assert info.sweeps == 1
        assert info.sweep_dates == ("2020-07-06",)
        assert info.digest
        assert info.config["seed"] == 1
        assert info.merged_from_shards is None

    def test_describe_unknown_key_raises_keyerror(self, catalog):
        with pytest.raises(KeyError, match="no stored study"):
            catalog.describe("f" * 64)

    def test_registry_digest_tracks_content(self, catalog, two_studies):
        before = catalog.registry_digest()
        assert before == catalog.registry_digest()
        save(catalog.store, 3, study(["2020-08-30"], range(3)))
        assert catalog.registry_digest() != before

    def test_merge_provenance_is_surfaced(self, catalog, two_studies):
        key_a, _ = two_studies
        catalog.store.write_merge_manifest(
            key_a, {"shard_count": 4, "manifest_digest": "d" * 64}
        )
        info = catalog.describe(key_a)
        assert info.merged_from_shards == 4
        listed = {run.key: run for run in catalog.list_runs()}
        assert listed[key_a].merge is not None

    def test_empty_store_lists_nothing(self, catalog):
        assert catalog.list_runs() == []
        assert catalog.keys() == []


class TestSummarize:
    def test_fold_matches_full_materialization(self, catalog, two_studies):
        key_a, _ = two_studies
        folded = catalog.summarize(key_a)
        snapshots = list(catalog.iter_validated(key_a))
        assert folded.records_total == sum(
            len(s.records) for s in snapshots
        )
        assert folded.final_stats.servers == len(snapshots[-1].servers())
        assert set(folded.final_hosts) == {
            f"{r.ip}:{r.port}" for r in snapshots[-1].servers()
        }

    def test_streaming_fold_peak_memory_is_bounded(self, catalog):
        """The tentpole memory claim: the fold never holds the study.

        A 12-sweep study is written to the store; materializing it
        (``list(iter_validated)``) must allocate roughly 12 sweeps,
        while the streaming fold holds one sweep plus the compact
        state map.  Requiring the fold's tracemalloc peak to stay
        under half the materialized peak fails loudly if anyone
        "simplifies" summarize() into a list() call.
        """
        dates = [f"2020-07-{day:02d}" for day in range(1, 13)]
        key = save(catalog.store, 9, study(dates, range(1, 120)))

        tracemalloc.start()
        snapshots = list(catalog.iter_validated(key))
        _, materialized_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(snapshots) == 12
        del snapshots

        tracemalloc.start()
        folded = catalog.summarize(key)
        _, streaming_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert folded.records_total == 12 * 119

        assert streaming_peak < materialized_peak / 2, (
            f"streaming fold peaked at {streaming_peak} bytes, "
            f"materializing peaks at {materialized_peak} — the fold "
            "is no longer streaming"
        )


class TestDiffAcrossBackends:
    def test_diff_digest_is_byte_identical_on_every_backend(
        self, catalog, two_studies
    ):
        key_a, key_b = two_studies
        digests = {
            backend: catalog.diff(
                key_a, key_b, executor=backend, workers=2
            ).digest()
            for backend in ("serial", "thread", "process")
        }
        assert len(set(digests.values())) == 1, digests

    def test_self_diff_is_empty_despite_task_dedup(
        self, catalog, two_studies
    ):
        # The executor dedups tasks by key, so diff(k, k) folds once;
        # the result must still be a well-formed empty diff.
        key_a, _ = two_studies
        d = catalog.diff(key_a, key_a)
        assert d.is_empty()
        assert d.label_a == d.label_b == key_a

    def test_diff_content_matches_inputs(self, catalog, two_studies):
        key_a, key_b = two_studies
        d = catalog.diff(key_a, key_b)
        # range(1, 40) -> range(20, 60): 1..19 vanish, 40..59 appear.
        assert [s.ip for s in d.disappeared] == list(range(1, 20))
        assert [s.ip for s in d.appeared] == list(range(40, 60))
        assert d.servers_a == 39 and d.servers_b == 40

    def test_diff_unknown_key_fails_before_fanout(
        self, catalog, two_studies
    ):
        key_a, _ = two_studies
        with pytest.raises(KeyError, match="no stored study"):
            catalog.diff(key_a, "0" * 64)


class TestResultFor:
    def test_reconstructs_config_and_snapshots(self, catalog, two_studies):
        key_a, _ = two_studies
        result = catalog.result_for(key_a)
        assert result.config.seed == 1
        assert len(result.snapshots) == 1
        # The tiny synthetic population is not the default spec, so no
        # spec is attached — and the environment cannot be rebuilt.
        assert result.spec is None
        with pytest.raises(ValueError, match="population spec"):
            result.timeline  # noqa: B018 — property access is the test
