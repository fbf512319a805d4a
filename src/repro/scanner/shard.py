"""Address-space sharding: partition, scan, checkpoint, merge.

The paper's campaign is internet-wide; one process owning a whole
study means a crash at sweep 47 of 48 rescans everything.  This
module cuts a study into N independent **shards** the way zmap cuts
its targets across scan machines: candidate *i* of the per-sweep
candidate stream belongs to shard ``i % N``, which keeps the shards
balanced by count.  Because the stream is a pure function of the
sweep RNG (see :func:`repro.netsim.tcpscan.candidate_stream`: the
registered hosts, then the random draws in draw order) and every grab
derives its bytes from ``(seed, date, address, port)`` alone, each
shard can run in its own process — on its own rebuilt simulated
Internet, on any executor backend — and the merged snapshots are
byte-identical to an unsharded run, for every N.  A shard's slice is
only meaningful under the stream order that cut it, so a change to
that order bumps :data:`~repro.dataset.store.SCHEMA_VERSION`, and
checkpoints cut under the old order stop matching.

Shards checkpoint into the :class:`~repro.dataset.store.StudyStore`
(``shards/<study-key>/<index>-of-<count>/``, digest-validated like
any entry), so a killed campaign resumes from the last completed
shard: ``repro study --shards N --resume``.  The merge reassembles
canonical record order, re-applies the first-wave-beats-referenced
classification globally, and publishes the result under the study's
ordinary content key — analyses load it with no idea it was sharded —
plus a ``merge.json`` manifest recording every shard digest that went
in (the integrity-lock pattern: provenance you can re-hash).

    >>> ShardSpec(0, 2).select(["a", "b", "c", "d", "e"])
    ['a', 'c', 'e']
    >>> ShardSpec(1, 2).select(["a", "b", "c", "d", "e"])
    ['b', 'd']
    >>> ShardSpec(0, 1).select(["a", "b"])
    ['a', 'b']
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from repro.core.config import StudyConfig
from repro.core.golden import (
    canonical_json,
    combined_digest,
    sweep_digests,
)
from repro.core.study import Study, StudyResult
from repro.dataset.store import (
    SCHEMA_VERSION,
    StoreIntegrityError,
    StudyStore,
)
from repro.deployments.spec import PopulationSpec, build_default_spec
from repro.netsim.tcpscan import candidate_stream
from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import build_executor
from repro.scanner.records import MeasurementSnapshot


class ShardMergeError(RuntimeError):
    """Shard outputs cannot be reassembled into one coherent study."""


@dataclass(frozen=True)
class ShardSpec:
    """One slice of an index-mod partition: positions ``i % count == index``.

    zmap's sharding, exactly: membership depends only on a candidate's
    *position* in the shared candidate stream, so the union over all
    shards is the whole stream for every ``count``, and no candidate
    lands in two shards.
    """

    index: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index {self.index} outside [0, {self.count})"
            )

    @property
    def label(self) -> str:
        return f"{self.index}/{self.count}"

    def select(self, items: Sequence) -> list:
        """This shard's slice of ``items``, order preserved."""
        return list(items[self.index :: self.count])


class ShardedScanCampaign(ScanCampaign):
    """A :class:`~repro.scanner.campaign.ScanCampaign` over one shard.

    Identical in every respect — RNG derivation, per-task network
    views, executor fan-out, follow-references — except that stage 0
    probes only this shard's slice of the candidate stream.
    Follow-reference grabs are *not* sharded: a referenced endpoint is
    grabbed by whichever shard scanned the referring server, and the
    merge deduplicates (byte-equal by construction) and re-applies the
    first-wave-beats-referenced rule across shards.
    """

    def __init__(self, *args, shard: ShardSpec, **kwargs):
        super().__init__(*args, **kwargs)
        self._shard = shard

    def _sweep_batches(self, sweep_rng, extra_candidates, batch_size):
        stream = candidate_stream(
            self._network,
            self._port,
            sweep_rng,
            extra_candidates=extra_candidates,
        )
        mine = self._shard.select(stream)
        for start in range(0, len(mine), batch_size):
            yield mine[start : start + batch_size]


# --- merging -----------------------------------------------------------------


def merge_sweep(parts: Sequence[MeasurementSnapshot]) -> MeasurementSnapshot:
    """Reassemble one sweep from its per-shard snapshots.

    Counters sum exactly (each unique candidate was probed by exactly
    one shard).  First-wave records concatenate and re-sort into the
    canonical ``(address, port)`` order — a duplicate first-wave key
    means the shards did not partition and is an error.  Referenced
    records may legitimately appear in several shards (two shards'
    servers can advertise the same endpoint) — they are byte-identical
    by RNG construction, which the merge verifies before keeping one —
    and a referenced record whose endpoint any shard scanned as
    first-wave is dropped, restoring the campaign's
    first-wave-beats-referenced classification globally.
    """
    if not parts:
        raise ShardMergeError("nothing to merge")
    dates = {part.date for part in parts}
    if len(dates) != 1:
        raise ShardMergeError(f"shards disagree on sweep date: {sorted(dates)}")
    primary: dict[tuple[int, int], object] = {}
    referenced: dict[tuple[int, int], object] = {}
    for part in parts:
        for record in part.records:
            key = (record.ip, record.port)
            if record.via_reference:
                prior = referenced.get(key)
                if prior is None:
                    referenced[key] = record
                elif canonical_json(prior.to_json_dict()) != canonical_json(
                    record.to_json_dict()
                ):
                    raise ShardMergeError(
                        f"shards produced different referenced records "
                        f"for {key}"
                    )
            else:
                if key in primary:
                    raise ShardMergeError(
                        f"first-wave record {key} appears in two shards "
                        "— the inputs do not partition one candidate "
                        "stream"
                    )
                primary[key] = record
    merged = MeasurementSnapshot(
        date=next(iter(dates)),
        probed=sum(part.probed for part in parts),
        port_open=sum(part.port_open for part in parts),
        excluded=sum(part.excluded for part in parts),
    )
    merged.records.extend(primary[key] for key in sorted(primary))
    merged.records.extend(
        referenced[key] for key in sorted(referenced) if key not in primary
    )
    return merged


def merge_snapshots(
    shard_snapshots: Sequence[Sequence[MeasurementSnapshot]],
) -> list[MeasurementSnapshot]:
    """Merge whole shard runs (one snapshot list per shard), sweep-wise.

    Input order does not matter: :func:`merge_sweep` re-sorts records
    canonically and sums counters, so any shard completion or
    presentation order yields identical bytes.
    """
    lengths = {len(snapshots) for snapshots in shard_snapshots}
    if len(lengths) != 1:
        raise ShardMergeError(
            f"shards ran different sweep counts: {sorted(lengths)}"
        )
    return [
        merge_sweep([snapshots[i] for snapshots in shard_snapshots])
        for i in range(lengths.pop())
    ]


def build_merge_manifest(
    key: str,
    parts: Sequence[Sequence[MeasurementSnapshot]],
    merged: Sequence[MeasurementSnapshot],
) -> dict:
    """The provenance record a merged entry publishes (``merge.json``).

    Names every shard's per-sweep and combined digests plus the merged
    digest, and seals itself with a digest over its own canonical JSON
    — any later edit to the manifest is detectable, and any shard
    checkpoint can be re-hashed against it.
    """
    manifest = {
        "schema": SCHEMA_VERSION,
        "key": key,
        "shard_count": len(parts),
        "merged_digest": combined_digest(sweep_digests(list(merged))),
        "shards": [
            {
                "index": index,
                "count": len(parts),
                "records": sum(len(s.records) for s in snapshots),
                "digest": combined_digest(sweep_digests(list(snapshots))),
                "per_sweep": sweep_digests(list(snapshots)),
            }
            for index, snapshots in enumerate(parts)
        ],
    }
    manifest["manifest_digest"] = hashlib.sha256(
        canonical_json(manifest).encode("utf-8")
    ).hexdigest()
    return manifest


# --- running -----------------------------------------------------------------


def run_study_shard(
    config: StudyConfig,
    shard: ShardSpec,
    spec: PopulationSpec | None = None,
    store: StudyStore | None = None,
    resume: bool = False,
) -> list[MeasurementSnapshot]:
    """Scan (or resume) one shard of a study; returns its snapshots.

    With ``resume`` and a store, a checkpoint that validates is
    returned without rebuilding a single host; an absent or corrupt
    checkpoint is (re)scanned.  Each shard rebuilds the simulated
    Internet itself — shard processes share nothing but the seed.
    """
    spec = spec or build_default_spec()
    if store is not None and resume:
        try:
            stored = store.load_shard(config, spec, shard.index, shard.count)
        except StoreIntegrityError:
            # A checkpoint that fails validation is treated exactly
            # like an absent one: rescan.  Resume must never be
            # stopped by a half-written leftover from the crash it is
            # recovering from.
            stored = None
        if stored is not None:
            return stored
    study = Study(config, spec=spec)
    _, timeline = study.build_environment(spec)
    identity = study.scanner_identity()
    executor = build_executor(config.executor, config.workers)
    snapshots = study.scan_sweeps(timeline, identity, executor, shard=shard)
    if store is not None:
        store.save_shard(config, spec, shard.index, shard.count, snapshots)
    return snapshots


def merge_study_shards(
    store: StudyStore,
    config: StudyConfig,
    shard_count: int,
    spec: PopulationSpec | None = None,
) -> str:
    """Merge all N shard checkpoints into the canonical store entry.

    Every shard must hold a validating checkpoint.  The merged
    snapshots are published under the study's ordinary content key —
    indistinguishable from an unsharded save, so ``Study.run(store)``
    and ``repro analyze`` load them transparently — together with the
    merge manifest.  Returns the entry key.
    """
    spec = spec or build_default_spec()
    parts: list[list[MeasurementSnapshot]] = []
    missing: list[int] = []
    for index in range(shard_count):
        snapshots = store.load_shard(config, spec, index, shard_count)
        if snapshots is None:
            missing.append(index)
        else:
            parts.append(snapshots)
    if missing:
        raise ShardMergeError(
            f"cannot merge: shards {missing} of {shard_count} have no "
            f"checkpoint under {store.root}"
        )
    merged = merge_snapshots(parts)
    key = store.save(config, spec, merged)
    store.write_merge_manifest(key, build_merge_manifest(key, parts, merged))
    return key


def run_sharded_study(
    config: StudyConfig,
    shard_count: int,
    spec: PopulationSpec | None = None,
    store: StudyStore | None = None,
    resume: bool = False,
) -> StudyResult:
    """Run every shard (skipping valid checkpoints under ``resume``),
    merge, and — with a store — publish the canonical entry + manifest.

    The driver loop a single machine uses; a fleet runs
    :func:`run_study_shard` per machine instead and finishes with
    :func:`merge_study_shards`.
    """
    spec = spec or build_default_spec()
    if store is not None and resume:
        stored = store.load(config, spec)
        if stored is not None:
            return StudyResult(config=config, spec=spec, snapshots=stored)
    parts = [
        run_study_shard(
            config,
            ShardSpec(index, shard_count),
            spec=spec,
            store=store,
            resume=resume,
        )
        for index in range(shard_count)
    ]
    merged = merge_snapshots(parts)
    if store is not None:
        key = store.save(config, spec, merged)
        store.write_merge_manifest(
            key, build_merge_manifest(key, parts, merged)
        )
    return StudyResult(config=config, spec=spec, snapshots=merged)
