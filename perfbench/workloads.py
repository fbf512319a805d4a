"""The benchmark's three seeded workloads over the simulated lane.

Each workload builds its inputs from the seed alone, runs one timed
operation at a time (a weekly sweep, or one store request) and checks
every output against ground truth outside the timed region:

* ``paper-sweeps`` — the paper's own traffic: distinct study weeks over
  a row-stratified sample of the 1,114-host final population.
* ``sparse-internet`` — the Internet-wide shape: a million dark
  candidates a week, junk talkers on 4840, an opt-out blocklist, and
  the device-zoo rows that fail before any secure channel opens.
* ``study-store`` — reads beside writes on the content-addressed store
  (one closed-loop client, no think time, ~4 reads per write).

RSA keys come only from the committed keycache (seed ``KEY_SEED``), so
a new benchmark seed costs no key generation.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.analysis.diff import diff_summaries, summarize_stream
from repro.analysis.pipeline import run_analyses
from repro.core.config import StudyConfig
from repro.core.golden import (
    snapshot_digest,
    tiny_hostile_spec,
    tiny_study_config,
)
from repro.core.study import JunkTcpService, Study
from repro.dataset.catalog import StudyCatalog
from repro.dataset.store import StoreIntegrityError, StudyStore, study_key
from repro.deployments.evolution import (
    DISCOVERY_COUNTS,
    SWEEP_DATES,
    StudyTimeline,
)
from repro.deployments.keyfactory import KeyFactory
from repro.deployments.personalities import PERSONALITIES
from repro.deployments.population import PopulationBuilder
from repro.deployments.spec import PopulationSpec, build_default_spec
from repro.netsim import tcpscan
from repro.netsim.blocklist import Blocklist
from repro.netsim.net import SimHost
from repro.reporting import pack
from repro.scanner.campaign import ScanCampaign
from repro.scanner.executor import SerialScanExecutor
from repro.util.ipaddr import CidrBlock
from repro.util.rng import DeterministicRng

ROOT = Path(__file__).resolve().parents[1]
KEYCACHE = ROOT / ".keycache"
OUT_DIR = Path(__file__).resolve().parent / "_out"

#: Seed of the committed keycache (``.keycache/seed20200830``).  The
#: population's ``key_factory`` and the scanner identity always use it;
#: the benchmark seed drives everything else.
KEY_SEED = 20200830
OPCUA_PORT = 4840
#: Study weeks the sweep workloads visit, newest first: the last
#: study week (2020-08-30, the one the paper's traversal runs on) is
#: always measured, however few weeks fit in a run.
WEEK_ORDER = tuple(reversed(range(len(SWEEP_DATES))))
LAST_WEEK = len(SWEEP_DATES) - 1


@dataclass
class Tally:
    """What one run attempted, what failed, and what it produced."""

    attempted: int = 0
    failed: int = 0
    results: int = 0
    addrs: int = 0
    latencies: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def scanner_identity():
    """The research scanner's identity, keyed from the keycache seed."""
    return Study(StudyConfig(seed=KEY_SEED)).scanner_identity()


def key_factory() -> KeyFactory:
    return KeyFactory(KEY_SEED, cache_dir=KEYCACHE)


def scaled_counts(scale: float) -> tuple[int, ...]:
    """The weekly discovery fleet shrunk by ``scale`` (at least one)."""
    return tuple(max(1, round(count * scale)) for count in DISCOVERY_COUNTS)


def stratified_sample(spec, hosts, fraction, rng, rows=None):
    """A row-stratified sample: every row keeps its share, at least 1.

    Sampling the *built* population (instead of building a reduced
    spec) keeps every host at its full-population index, so every key
    label resolves in the committed keycache.
    """
    by_row: dict[str, list] = {}
    for host in hosts:
        by_row.setdefault(host.row.row_id, []).append(host)
    chosen = []
    for row in rows if rows is not None else spec.rows:
        members = by_row[row.row_id]
        chosen.extend(
            rng.sample(members, max(1, round(len(members) * fraction)))
        )
    return sorted(chosen, key=lambda host: host.index)


def add_junk_hosts(network, count: int, rng) -> list[int]:
    """``count`` non-OPC UA talkers on TCP/4840 at seeded addresses."""
    added = []
    while len(added) < count:
        address = rng.randrange(2**32)
        if network.host(address) is not None:
            continue
        host = SimHost(address=address, asn=None)
        host.listen(OPCUA_PORT, JunkTcpService)
        network.add_host(host)
        added.append(address)
    return added


def record_index(snapshot) -> dict:
    return {(record.ip, record.port): record for record in snapshot.records}


class Workload:
    """What every workload shares: its seed and its operation count."""

    name: str
    #: Seconds one operation takes on the reference machine (2 shared
    #: cores); ``(smoke, full)``.
    op_seconds: tuple[float, float]

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.rng = DeterministicRng(seed, f"perfbench/{self.name}")

    def ops_for(self, seconds: float) -> int:
        """Operations in one run: as many as take ``seconds`` on the
        reference machine.  A fixed count, not a deadline, so every run
        of a workload does the same work and its latency percentiles
        rank the same number of samples."""
        return max(1, round(seconds / self.op_seconds[not self.smoke]))

    def keys_stats(self, state) -> dict[str, int]:
        return state["keys"].stats

    def prepare(self, state) -> None:
        """Compute reference outputs (untimed, untraced)."""

    def discard(self, state) -> None:
        """Release what a throw-away set-up left behind."""

    def finish(self, state) -> None:
        """Release what the measured set-up left behind."""


class SweepWorkload(Workload):
    """Shared loop of the two sweep workloads: one distinct week per op.

    Sweep ``i`` scans study week ``WEEK_ORDER[i % 8]`` with its own
    campaign substream ``campaign-{i}`` and its own junk hosts, so no
    timed sweep repeats an earlier one.
    """

    def op(self, state, index: int):
        week = WEEK_ORDER[index % len(WEEK_ORDER)]
        network = state["timeline"].network_for_sweep(week)
        junk = add_junk_hosts(
            network, self.junk_hosts, self.rng.substream(f"junk-{index}")
        )
        campaign = ScanCampaign(
            network,
            state["identity"],
            self.rng.substream(f"campaign-{index}"),
            blocklist=state.get("blocklist"),
            executor=SerialScanExecutor(),
        )
        snapshot = campaign.run_sweep(
            label=SWEEP_DATES[week],
            follow_references=True,
            extra_candidates=self.extra_candidates,
            traverse=self.traverse and week == LAST_WEEK,
        )
        return week, junk, snapshot

    def check(self, state, index: int, outcome, tally: Tally) -> None:
        week, junk, snapshot = outcome
        records = record_index(snapshot)
        for address in junk:
            record = records.get((address, OPCUA_PORT))
            tally.expect(
                record is None or not record.is_opcua,
                f"week {week}: junk host {address} recorded as OPC UA",
            )
        self.check_hosts(state, week, snapshot, records, tally)
        tally.results += len(snapshot.records)
        tally.addrs += snapshot.probed + snapshot.excluded
        tally.digests.append(snapshot_digest(snapshot))


class PaperSweeps(SweepWorkload):
    """The paper's weekly sweeps over a stratified 5 % sample."""

    name = "paper-sweeps"
    op_seconds = (1.5, 11.0)
    traverse = True
    extra_candidates = 500

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.fraction = 0.02 if smoke else 0.05
        # Study.noise_hosts (40 a week), scaled like the population.
        self.junk_hosts = max(1, round(40 * self.fraction))

    def setup(self):
        spec = build_default_spec()
        keys = key_factory()
        builder = PopulationBuilder(spec, seed=self.seed, key_factory=keys)
        hosts = builder.build_hosts()
        rows = spec.rows[::8] if self.smoke else None
        sample = stratified_sample(
            spec, hosts, self.fraction, self.rng.substream("sample"), rows
        )
        timeline = StudyTimeline(
            builder,
            sample,
            seed=self.seed,
            discovery_counts=scaled_counts(
                self.fraction / 4 if self.smoke else self.fraction
            ),
        )
        return {
            "keys": keys,
            "timeline": timeline,
            "identity": scanner_identity(),
        }

    def check_hosts(self, state, week, snapshot, records, tally) -> None:
        for host in state["timeline"].present_hosts(week):
            record = records.get((host.address_for_sweep(week), host.port))
            observed = None
            if record is not None and record.is_opcua:
                session = record.session
                observed = (
                    (
                        session.negotiated_policy_uri,
                        session.negotiated_mode,
                        session.negotiation_error,
                    )
                    if session is not None
                    else (None, None, None)
                )
            expected = host.row.expected_negotiation()
            tally.expect(
                observed == expected,
                f"week {week}: host {host.index} ({host.row.row_id}) "
                f"negotiated {observed}, expected {expected}",
            )


class SparseInternet(SweepWorkload):
    """Mostly dark addresses, mostly non-OPC UA talkers, no crypto."""

    name = "sparse-internet"
    op_seconds = (0.05, 2.8)
    traverse = False

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.extra_candidates = 20_000 if smoke else 1_000_000
        self.junk_hosts = 50 if smoke else 2_000

    def setup(self):
        keys = key_factory()
        spec = tiny_hostile_spec()
        builder = PopulationBuilder(spec, seed=self.seed, key_factory=keys)
        # Build the whole zoo, then keep the PA rows: filtering rows
        # before building would shift host indices off the keycache.
        zoo = [
            host for host in builder.build_hosts()
            if host.row.policy_group == "PA"
        ]
        timeline = StudyTimeline(
            builder,
            zoo,
            seed=self.seed,
            discovery_counts=(0,) * len(SWEEP_DATES),
        )
        return {
            "keys": keys,
            "timeline": timeline,
            "zoo": zoo,
            "identity": scanner_identity(),
            "blocklist": build_blocklist(self.rng.substream("blocklist")),
        }

    def prepare(self, state) -> None:
        # Count what candidate generation hands each campaign: the
        # number its ``probed + excluded`` must add up to.
        stream = tcpscan.candidate_stream
        state["restore"] = stream
        state["candidates"] = 0

        def counted(*args, **kwargs):
            candidates = stream(*args, **kwargs)
            state["candidates"] += len(candidates)
            return candidates

        tcpscan.candidate_stream = counted

    def finish(self, state) -> None:
        tcpscan.candidate_stream = state["restore"]

    def op(self, state, index: int):
        before = state["candidates"]
        outcome = super().op(state, index)
        return outcome + (state["candidates"] - before,)

    def check(self, state, index: int, outcome, tally: Tally) -> None:
        week, junk, snapshot, candidates = outcome
        tally.expect(
            snapshot.probed + snapshot.excluded == candidates,
            f"week {week}: probed {snapshot.probed} + excluded "
            f"{snapshot.excluded} != {candidates} candidates",
        )
        super().check(state, index, (week, junk, snapshot), tally)

    def check_hosts(self, state, week, snapshot, records, tally) -> None:
        for host in state["zoo"]:
            record = records.get((host.address_for_sweep(week), host.port))
            persona = PERSONALITIES.get(host.personality)
            expected = (
                (
                    persona.expected_host_error_category,
                    persona.expected_session_error_category,
                )
                if persona is not None
                else (None, None)
            )
            observed = None
            if record is not None:
                observed = (
                    record.error_category,
                    record.session.error_category
                    if record.session is not None
                    else None,
                )
            tally.expect(
                observed == expected,
                f"week {week}: zoo host {host.index} "
                f"({host.personality}) recorded {observed}, "
                f"expected {expected}",
            )


#: The paper's opt-out list covered 0.13 % of the IPv4 space.
BLOCKLIST_SHARE = 0.0013


def build_blocklist(rng) -> Blocklist:
    """Seeded /16 opt-out blocks of the paper's relative size.

    Kept off 10.0.0.0/8, where the simulated autonomous systems (and
    with them every zoo host) live.
    """
    blocks = round(2**32 * BLOCKLIST_SHARE / 2**16)
    blocklist = Blocklist()
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < blocks:
        first, second = rng.randrange(1, 224), rng.randrange(256)
        if first == 10 or (first, second) in chosen:
            continue
        chosen.add((first, second))
        blocklist.add(CidrBlock.parse(f"{first}.{second}.0.0/16"))
    return blocklist


#: Request kinds of the store workload, each twice per block of ten:
#: four reads (runs, report, diff, export) per write (publish).
REQUEST_KINDS = ("runs", "report", "diff", "export", "publish")
#: Hosts in each stored study: a prefix of the default population's
#: expansion (host indices, and so key labels, match the keycache).
#: ~30 distinct certificates keep one ``report`` near 0.15 s, so a run
#: ranks ~130 requests; ``analysis.shared_primes.pairs`` grows with
#: their square.
STORE_HOSTS = 32
STORE_STUDIES = 2


def prefix_spec(hosts: int) -> PopulationSpec:
    """The default spec cut after its first ``hosts`` hosts."""
    rows = []
    remaining = hosts
    for row in build_default_spec().rows:
        if remaining <= 0:
            break
        rows.append(replace(row, count=min(row.count, remaining)))
        remaining -= rows[-1].count
    return PopulationSpec(rows=rows)


@dataclass
class StoredStudy:
    config: StudyConfig
    spec: PopulationSpec
    key: str
    snapshots: list


class StudyStoreWorkload(Workload):
    """Closed loop of store requests against freshly scanned studies."""

    name = "study-store"
    op_seconds = (0.045, 0.15)

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.hosts = 7 if smoke else STORE_HOSTS
        self._sequence: list[str] = []
        self._requests = DeterministicRng(seed, "perfbench/requests")

    def setup(self):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="store-", dir=OUT_DIR))
        store = StudyStore(root)
        keys = key_factory()
        identity = scanner_identity()
        spec = prefix_spec(self.hosts)
        studies = []
        for index in range(STORE_STUDIES):
            config = tiny_study_config(
                seed=self.rng.substream(f"study-{index}").randrange(2**31)
            )
            builder = PopulationBuilder(
                spec, seed=config.seed, key_factory=keys
            )
            timeline = StudyTimeline(
                builder,
                builder.build_hosts(),
                seed=config.seed,
                discovery_counts=scaled_counts(config.discovery_scale),
            )
            snapshots = Study(config, spec=spec).scan_sweeps(
                timeline, identity, SerialScanExecutor()
            )
            key = store.save(config, spec, snapshots)
            studies.append(StoredStudy(config, spec, key, snapshots))
        return {
            "root": root,
            "store": store,
            "catalog": StudyCatalog(store),
            "studies": studies,
            "keys": keys,
            "published": 0,
            "exports": 0,
        }

    def discard(self, state) -> None:
        shutil.rmtree(state["root"], ignore_errors=True)

    finish = discard

    def prepare(self, state) -> None:
        """Reference digests from the in-memory scans (no store read)."""
        studies = state["studies"]
        state["expected_keys"] = {study.key for study in studies}
        state["report_ref"] = {}
        state["pack_ref"] = {}
        summaries = {}
        for study in studies:
            seed = study.config.seed
            state["report_ref"][study.key] = run_analyses(
                study.snapshots, study.spec, seed=seed
            ).digest()
            # The pack exporter analyses a reduced-population entry
            # without its spec (StudyCatalog.result_for).
            state["pack_ref"][study.key] = run_analyses(
                study.snapshots, None, seed=seed
            ).digest()
            summaries[study.key] = summarize_stream(
                study.snapshots, label=study.key
            )
        state["diff_ref"] = {
            (a, b): diff_summaries(summaries[a], summaries[b]).digest()
            for a in summaries
            for b in summaries
            if a != b
        }

    def _next_kind(self) -> str:
        if not self._sequence:
            block = list(REQUEST_KINDS) * 2
            self._requests.shuffle(block)
            self._sequence = block
        return self._sequence.pop()

    def op(self, state, index: int):
        kind = self._next_kind()
        studies = state["studies"]
        pick = self._requests.randrange(len(studies))
        study = studies[pick]
        try:
            return kind, study, getattr(self, f"_{kind}")(state, study, pick)
        except StoreIntegrityError as exc:
            return kind, study, exc

    def _runs(self, state, study, pick):
        catalog = state["catalog"]
        return [info.key for info in catalog.list_runs()], (
            catalog.registry_digest()
        )

    def _report(self, state, study, pick):
        snapshots = state["store"].load(study.config, study.spec)
        if snapshots is None:
            return None
        return run_analyses(
            snapshots, study.spec, seed=study.config.seed
        ).digest()

    def _diff(self, state, study, pick):
        other = state["studies"][(pick + 1) % len(state["studies"])]
        return other.key, state["catalog"].diff(study.key, other.key).digest()

    def _publish(self, state, study, pick):
        # Every write lands under a content key no earlier one used.
        state["published"] += 1
        seed = study.config.seed + 10**9 + state["published"]
        config = replace(study.config, seed=seed)
        return config, state["store"].save(config, study.spec, study.snapshots)

    def _export(self, state, study, pick):
        state["exports"] += 1
        out = state["root"] / "packs" / str(state["exports"])
        return out, pack.write_pack(state["catalog"], study.key, out)

    def check(self, state, index: int, outcome, tally: Tally) -> None:
        kind, study, result = outcome
        tally.results += 1
        if isinstance(result, StoreIntegrityError):
            tally.expect(False, f"{kind} {study.key[:12]}: {result}")
            tally.digests.append(f"{kind}:integrity-error")
            return
        if kind == "runs":
            keys, digest = result
            ok = set(keys) == state["expected_keys"]
        elif kind == "report":
            digest = result
            ok = digest == state["report_ref"][study.key]
        elif kind == "diff":
            other, digest = result
            ok = digest == state["diff_ref"][(study.key, other)]
        elif kind == "publish":
            config, digest = result
            ok = digest == study_key(config, study.spec)
            state["expected_keys"].add(digest)
        else:
            out, manifest = result
            digest = manifest["analysis_digest"]
            try:
                pack.verify_pack(out)
                verified = True
            except pack.PackIntegrityError:
                verified = False
            ok = (
                verified
                and manifest["study_key"] == study.key
                and digest == state["pack_ref"][study.key]
            )
            shutil.rmtree(out, ignore_errors=True)
        tally.expect(ok, f"{kind} {study.key[:12]} returned {digest}")
        tally.digests.append(f"{kind}:{digest}")


WORKLOADS = {
    workload.name: workload
    for workload in (PaperSweeps, SparseInternet, StudyStoreWorkload)
}
