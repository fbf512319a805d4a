"""Golden-digest plumbing: canonical JSON and SHA-256 for snapshots.

The reproduction's central guarantee is that a study is a pure
function of its seed — across executor backends, probe batch sizes,
and refactors.  This module pins that guarantee down to a hash:

* :func:`snapshot_digest` — SHA-256 over one snapshot's canonical
  JSON (:meth:`~repro.scanner.records.MeasurementSnapshot.to_json_dict`
  serialized with sorted keys and compact separators), hashed record
  line by record line through :class:`SnapshotDigest`, the same frame
  the study store hashes as it writes and reads those lines;
* :func:`study_digests` / :func:`study_digest` — per-sweep digests and
  the digest of the whole sweep sequence;
* :func:`tiny_spec` / :func:`tiny_study_config` / :func:`run_tiny_study`
  — the reduced study the golden fixtures are computed from: a handful
  of spec rows, a scaled-down discovery fleet, and a deliberately
  small probe batch size so even the tiny candidate stream spans many
  stage-0 batches.  Small enough for the CI fast tier, yet it
  exercises every pipeline stage (batched SYN sweep, grabs,
  follow-references, renewals, traversal on the final sweep).

``tests/golden/`` commits the digests; regenerate with
``python tests/golden/regenerate.py`` after an *intentional*
determinism change and explain the change in the PR.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.config import StudyConfig
from repro.core.study import Study, StudyResult
from repro.deployments.spec import PopulationSpec, build_default_spec
from repro.scanner.records import MeasurementSnapshot

#: Spec rows the tiny study scans.  The first eight rows cover three
#: policy groups, reuse families, and both accessible and inaccessible
#: outcomes (127 servers) — enough population structure for renewals
#: and follow-references to occur.
TINY_SPEC_ROWS = 8

#: Probe batch size for the tiny study: small enough that every sweep
#: spans multiple stage-0 batches, so parallel backends genuinely
#: exercise the batched sweep path.
TINY_BATCH_SIZE = 16

#: Rows of the negotiated-security tiny study (52 servers).  Chosen so
#: the secure-channel negotiation exercises every outcome the population can
#: express: completed channels at Basic128Rsa15, Basic256,
#: Basic256Sha256, and Aes256_Sha256_RsaPss; Sign-only and
#: Sign+SignAndEncrypt mode sets; strict servers that reject the
#: scanner's certificate (BadSecurityChecksFailed); and
#: anonymous-rejecting hosts whose channels still negotiate.
TINY_SECURE_ROW_IDS = (
    "P1-md5",
    "P2-auth-r3",
    "P6-acc-sha1",
    "P8-auth",
    "Q1-sc",
    "Q2-sc-s",
    "Q2-acc-uncl-ssse",
    "Q3-acc-a",
    "P4s1-auth",
)


def canonical_json(payload) -> str:
    """Stable serialization: sorted keys, compact separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class SnapshotDigest:
    """One snapshot's digest, fed its canonical record lines one by one.

    ``canonical_json(snapshot.to_json_dict())`` is a frame: sorted keys
    put the date and counters first and ``records`` last, so the text
    is ``{"date":…,"excluded":…,"port_open":…,"probed":…,"records":[``,
    then each record's ``canonical_json(record.to_json_dict())`` joined
    by commas, then ``]}``.  Hashing the record lines as a writer emits
    them, or as a reader reads them back, gives :func:`snapshot_digest`
    without holding the text or re-encoding a record::

        >>> snapshot = MeasurementSnapshot(date="2020-07-06", probed=3)
        >>> SnapshotDigest(snapshot).hexdigest() == hashlib.sha256(
        ...     canonical_json(snapshot.to_json_dict()).encode()
        ... ).hexdigest()
        True
    """

    def __init__(self, snapshot: MeasurementSnapshot):
        """Open the frame on ``snapshot``'s date and counters; its
        records are not read — pass their lines to :meth:`add`."""
        head = canonical_json(
            {
                "date": snapshot.date,
                "excluded": snapshot.excluded,
                "port_open": snapshot.port_open,
                "probed": snapshot.probed,
                "records": [],
            }
        )
        self._sha = hashlib.sha256(head[: -len("]}")].encode("utf-8"))
        self._separator = b""

    def add(self, line: str) -> None:
        """Hash the next record line (no line terminator)."""
        self._sha.update(self._separator)
        self._sha.update(line.encode("utf-8"))
        self._separator = b","

    def hexdigest(self) -> str:
        closed = self._sha.copy()
        closed.update(b"]}")
        return closed.hexdigest()


def snapshot_digest(snapshot: MeasurementSnapshot) -> str:
    digest = SnapshotDigest(snapshot)
    for record in snapshot.records:
        digest.add(canonical_json(record.to_json_dict()))
    return digest.hexdigest()


def sweep_digests(snapshots: list[MeasurementSnapshot]) -> dict[str, str]:
    """``{sweep date: digest}`` for every snapshot, in sweep order."""
    return {s.date: snapshot_digest(s) for s in snapshots}


def combined_digest(per_sweep: dict[str, str]) -> str:
    """One digest over a whole sweep sequence (date → digest, in order)."""
    material = canonical_json(list(map(list, per_sweep.items())))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def study_digests(result: StudyResult) -> dict[str, str]:
    return sweep_digests(result.snapshots)


def study_digest(result: StudyResult) -> str:
    """One digest over the whole study (the sweep digests, in order)."""
    return combined_digest(study_digests(result))


def tiny_spec(rows: int = TINY_SPEC_ROWS) -> PopulationSpec:
    """The first ``rows`` archetype rows of the default population."""
    return PopulationSpec(rows=build_default_spec().rows[:rows])


def tiny_study_config(
    executor: str = "serial", workers: int = 1, seed: int = 20200830
) -> StudyConfig:
    """The golden fixtures' configuration.

    Any change here invalidates the committed digests — treat it like
    a schema change and regenerate them in the same commit.
    """
    return StudyConfig(
        seed=seed,
        noise_hosts=6,
        extra_sweep_candidates=48,
        executor=executor,
        workers=workers,
        probe_batch_size=TINY_BATCH_SIZE,
        discovery_scale=0.01,
    )


def run_tiny_study(
    executor: str = "serial", workers: int = 1, seed: int = 20200830
) -> StudyResult:
    """Run the reduced eight-sweep study the golden digests pin."""
    return Study(
        tiny_study_config(executor=executor, workers=workers, seed=seed),
        spec=tiny_spec(),
    ).run()


def tiny_hostile_spec() -> PopulationSpec:
    """The device-zoo rows the hostile golden study scans (30 hosts).

    Every personality in
    :data:`repro.deployments.personalities.PERSONALITIES` is planted
    at a known count, plus two well-behaved control rows — the
    ``anomalies`` analysis must detect exactly the planted pathologies
    and nothing on the controls.
    """
    from repro.deployments.personalities import hostile_zoo_rows

    return PopulationSpec(rows=hostile_zoo_rows())


def run_tiny_hostile_study(
    executor: str = "serial", workers: int = 1, seed: int = 20200830
) -> StudyResult:
    """Run the device-zoo study ``anomalies.digest.json`` pins.

    Same configuration knobs as :func:`run_tiny_study`, hostile
    population: junk talkers, stalled writers, mid-handshake drops,
    transport rejections, honeypots, certificate pathologies, and
    address churn — every grab failure mode the scanner's error
    taxonomy names, under one digest.
    """
    return Study(
        tiny_study_config(executor=executor, workers=workers, seed=seed),
        spec=tiny_hostile_spec(),
    ).run()


def tiny_secure_spec() -> PopulationSpec:
    """The secure-endpoint rows the negotiated golden study scans."""
    rows = [
        row
        for row in build_default_spec().rows
        if row.row_id in TINY_SECURE_ROW_IDS
    ]
    assert len(rows) == len(TINY_SECURE_ROW_IDS)
    return PopulationSpec(rows=rows)


def run_tiny_secure_study(
    executor: str = "serial", workers: int = 1, seed: int = 20200830
) -> StudyResult:
    """Run the negotiated-security study ``negotiated.digest.json`` pins.

    Same configuration knobs as :func:`run_tiny_study`, different
    population: every host advertises at least one Sign or
    SignAndEncrypt endpoint, so each deep grab negotiates a secure
    channel and records the ``negotiated_*`` session fields.
    """
    return Study(
        tiny_study_config(executor=executor, workers=workers, seed=seed),
        spec=tiny_secure_spec(),
    ).run()
