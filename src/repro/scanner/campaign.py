"""Campaign orchestration: weekly sweeps + follow-references.

A campaign binds the scanner identity (self-signed certificate with
contact information, as the paper's ethics appendix describes), the
opt-out blocklist, and the per-host traversal budget; ``run_sweep``
produces one dated :class:`MeasurementSnapshot`.

From 2020-05-04 on, the paper also connected to host/port combinations
listed as endpoints on already-scanned servers ("follow references",
visible in Figure 2); ``follow_references=True`` reproduces that.

The whole sweep — SYN probing *and* protocol grabbing — runs through a
pluggable :class:`~repro.scanner.executor.ScanExecutor` (serial,
thread pool, or fork-based process pool).  The candidate permutation
is cut into :class:`ProbeBatchTask`s (stage 0); each batch is probed
on its own network view, its open addresses expand into
:class:`GrabTask`s (stage 1) that start grabbing while later batches
are still probing, and follow-reference grabs (stage 2) feed back
through the same bounded queue.  Four invariants make every
backend produce byte-identical snapshots:

* each grab derives its RNG purely from ``(seed, date, address,
  port)`` — the sweep substream's namespace embeds the date, and
  :func:`~repro.scanner.grabber.grab_host` derives per-connection
  substreams keyed by address and port;
* each probe batch and each grab runs against a per-task
  :class:`~repro.netsim.net.NetworkView` whose clock starts at sweep
  time, so no task observes another task's pacing;
* the first wave's task keys are all registered before any
  follow-reference task is, because the executor defers stage-2
  registration until the last probe batch has expanded — so a
  referenced endpoint that is also an open first-wave host is always
  classified as first-wave, regardless of completion timing;
* records are assembled canonically — the first wave sorted by
  address, follow-reference records sorted by ``(address, port)`` —
  regardless of completion order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from repro.client import ClientIdentity
from repro.netsim.blocklist import Blocklist
from repro.netsim.net import ConnectionRefused, HostDown, SimNetwork
from repro.netsim.tcpscan import DEFAULT_BATCH_SIZE, candidate_batches
from repro.scanner.ethics import LiveScanGate
from repro.scanner.executor import (
    GrabTask,
    ProbeBatchTask,
    ScanExecutor,
    SerialScanExecutor,
    build_executor,
)
from repro.scanner.grabber import grab_host
from repro.scanner.limits import ScanRateLimiter, TraversalBudget
from repro.scanner.records import HostRecord, MeasurementSnapshot
from repro.transport.capture import CaptureCorpus, CaptureRecorder
from repro.transport.replay import ReplayNetwork
from repro.transport.socket_io import (
    DEFAULT_CONNECT_TIMEOUT_S,
    DEFAULT_CONNECTION_DEADLINE_S,
    DEFAULT_READ_TIMEOUT_S,
    WallClock,
    connect_blocking,
)
from repro.transport.messages import TransportTimeout
from repro.util.ipaddr import format_endpoint_host, parse_ipv4
from repro.util.rng import DeterministicRng
from repro.util.simtime import format_utc

OPCUA_PORT = 4840


@dataclass(frozen=True)
class ProbeBatchOutcome:
    """What one SYN batch learned (stage-0 task result).

    Crosses the worker/coordinator boundary (pickled by the process
    backend), so it carries plain data only.  ``open_addresses``
    preserves permutation order within the batch.
    """

    probed: int
    excluded: int
    open_addresses: tuple[int, ...]


@dataclass(frozen=True)
class ScannerIdentity:
    """The measurement client's identity (paper Appendix A.2)."""

    client_identity: ClientIdentity
    contact_url: str = "https://scan-research.example.org"
    reverse_dns: str = "research-scanner.example.org"


class ScanCampaign:
    """Weekly measurement campaign over a simulated Internet.

    Binds the scanner identity, opt-out blocklist, per-host traversal
    budget, and an executor backend; :meth:`run_sweep` produces one
    dated :class:`~repro.scanner.records.MeasurementSnapshot` whose
    bytes depend only on ``(seed, date)`` — never on the backend or
    batch size.  The live and replay counterparts
    (:class:`LiveScanCampaign`, :class:`ReplayScanCampaign`) reuse the
    same grab sequence over the other two transport lanes.
    """

    def __init__(
        self,
        network: SimNetwork,
        identity: ScannerIdentity,
        rng: DeterministicRng,
        blocklist: Blocklist | None = None,
        budget: TraversalBudget | None = None,
        port: int = OPCUA_PORT,
        executor: ScanExecutor | None = None,
    ):
        self._network = network
        self._identity = identity
        self._rng = rng
        self._blocklist = blocklist or Blocklist()
        self._budget_template = budget or TraversalBudget()
        self._port = port
        self._executor = executor or SerialScanExecutor()

    def run_sweep(
        self,
        label: str | None = None,
        follow_references: bool = False,
        extra_candidates: int = 0,
        traverse: bool = True,
        batch_size: int | None = None,
    ) -> MeasurementSnapshot:
        """One full sweep: port scan, grab every responder, follow refs.

        ``batch_size`` sets the SYN-batch granularity (default:
        :data:`~repro.netsim.tcpscan.DEFAULT_BATCH_SIZE`).  It changes
        only how the candidate permutation is cut into executor tasks,
        never the snapshot bytes.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        date = label or format_utc(self._network.clock.now())[:10]
        sweep_rng = self._rng.substream(f"sweep-{date}")
        counters = {"probed": 0, "excluded": 0, "open": 0}

        def sweep_tasks():
            # zmap→zgrab2 pipelining, both stages through the executor:
            # every fixed-size slice of the candidate permutation is a
            # stage-0 probe task, and pooled backends start grabbing a
            # batch's open addresses while later batches are still
            # probing.
            batches = self._sweep_batches(
                sweep_rng,
                extra_candidates,
                batch_size if batch_size is not None else DEFAULT_BATCH_SIZE,
            )
            for index, batch in enumerate(batches):
                yield ProbeBatchTask(index, self._port, tuple(batch))

        def perform(task):
            if isinstance(task, ProbeBatchTask):
                return self._probe_batch(task)
            return self._grab(task, sweep_rng, traverse)

        def expand(task, record):
            if isinstance(task, ProbeBatchTask):
                # Accounting happens here, on the coordinator, so the
                # counters never race and totals are sums — identical
                # whatever order batches complete in.
                counters["probed"] += record.probed
                counters["excluded"] += record.excluded
                counters["open"] += len(record.open_addresses)
                return [
                    GrabTask(address, self._port)
                    for address in record.open_addresses
                ]
            # One level of following, from first-wave records only —
            # the endpoints a referenced server advertises are not
            # followed further (matching the paper's methodology).
            if not follow_references or task.via_reference:
                return []
            out = []
            for address, port in self._referenced_targets([record]):
                if address in self._blocklist:
                    continue
                out.append(GrabTask(address, port, via_reference=True))
            return out

        completed = self._executor.run(sweep_tasks(), perform, expand)
        snapshot = MeasurementSnapshot(
            date=date,
            probed=counters["probed"],
            port_open=counters["open"],
            excluded=counters["excluded"],
        )

        grabbed = [
            pair for pair in completed if isinstance(pair[0], GrabTask)
        ]
        primary = sorted(
            (pair for pair in grabbed if not pair[0].via_reference),
            key=lambda pair: pair[0].key,
        )
        referenced = sorted(
            (pair for pair in grabbed if pair[0].via_reference),
            key=lambda pair: pair[0].key,
        )
        snapshot.records.extend(record for _, record in primary)
        snapshot.records.extend(
            record for _, record in referenced if record.tcp_open
        )
        return snapshot

    def _sweep_batches(self, sweep_rng, extra_candidates, batch_size):
        """Stage-0 candidate batches for one sweep.

        The seam :class:`~repro.scanner.shard.ShardedScanCampaign`
        overrides: it feeds the same candidate permutation through an
        index-mod shard filter before batching, so a shard scans its
        slice of the stream and nothing else changes.
        """
        return candidate_batches(
            self._network,
            self._port,
            sweep_rng,
            extra_candidates=extra_candidates,
            batch_size=batch_size,
        )

    def _probe_batch(self, task: ProbeBatchTask) -> ProbeBatchOutcome:
        """SYN-probe one batch (runs inside executor workers).

        The blocklist is consulted at probe time — candidate
        generation deliberately does not filter (zmap's shard
        permutation is blocklist-agnostic too), so excluded accounting
        is identical whether the stream is probed serially or batched
        across workers.
        """
        view = self._network.task_view()
        blocklist = self._blocklist
        addresses = [
            address
            for address in task.addresses
            if address not in blocklist
        ]
        opens = view.probe_many(addresses, task.port)
        return ProbeBatchOutcome(
            probed=len(addresses),
            excluded=len(task.addresses) - len(addresses),
            open_addresses=tuple(opens),
        )

    def _grab(
        self,
        task: GrabTask,
        rng: DeterministicRng,
        traverse: bool = True,
    ) -> HostRecord:
        budget = replace(self._budget_template)
        view = self._network.task_view()
        return grab_host(
            view,
            task.address,
            task.port,
            self._identity.client_identity,
            rng,
            budget=budget,
            via_reference=task.via_reference,
            traverse=traverse,
        )

    def _referenced_targets(self, records) -> list[tuple[int, int]]:
        """host/port combinations named in scanned endpoint URLs."""
        targets = []
        seen = set()
        for record in records:
            for endpoint in record.endpoints:
                parsed = parse_endpoint_url(endpoint.endpoint_url)
                if parsed is None:
                    continue
                if parsed == (record.ip, record.port):
                    continue
                if parsed not in seen:
                    seen.add(parsed)
                    targets.append(parsed)
        return targets


# --- live lane ---------------------------------------------------------------
#
# The simulated campaign above and the live campaign below share the
# entire protocol stack — grab_host, UaClient, FrameReader — and differ
# only in how bytes move (SimSocket vs. real sockets) and in what gates
# stand in front of a connection.  The live lane never generates
# addresses: it scans exactly the targets it was handed.


class LiveNetwork:
    """Real sockets behind the grabber's network surface.

    Duck-types what :func:`~repro.scanner.grabber.grab_host` needs
    from a :class:`~repro.netsim.net.NetworkView`: ``host`` (ground
    truth — none on a live network), ``clock`` (wall time; traversal
    pacing becomes real pacing), and ``connect`` (a blocking live
    transport with per-connection deadline).  Connect failures are
    mapped onto the simulator's exception taxonomy so the grabber's
    error handling — and the record schema — is lane-independent.
    """

    def __init__(
        self,
        connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
        read_timeout_s: float = DEFAULT_READ_TIMEOUT_S,
        connection_deadline_s: float = DEFAULT_CONNECTION_DEADLINE_S,
        limiter: ScanRateLimiter | None = None,
        clock=None,
    ):
        self._connect_timeout_s = connect_timeout_s
        self._read_timeout_s = read_timeout_s
        self._connection_deadline_s = connection_deadline_s
        self._limiter = limiter
        self.clock = clock or WallClock()

    def host(self, address: int):
        return None  # no ground truth on live networks

    def connect(self, address: int, port: int):
        # Pacing lives at the connection, not the grab: one grab opens
        # up to three connections (discovery, secure channel, session),
        # and every one of them must respect the global rate and the
        # per-host interval.
        if self._limiter is not None:
            self._limiter.acquire(address)
        host = format_endpoint_host(address)
        try:
            return connect_blocking(
                host,
                port,
                connect_timeout_s=self._connect_timeout_s,
                read_timeout_s=self._read_timeout_s,
                connection_deadline_s=self._connection_deadline_s,
            )
        except TransportTimeout as exc:
            error = HostDown(f"connect to {host}:{port} timed out")
            error.category = "timeout"
            raise error from exc
        except ConnectionRefusedError as exc:
            raise ConnectionRefused(
                f"{host}:{port} refused the connection"
            ) from exc
        except OSError as exc:
            raise HostDown(f"{host}:{port}: {exc}") from exc


def parse_target_line(line: str, default_port: int = OPCUA_PORT):
    """Parse one targets-file line into ``(address, port)``.

    Accepts ``A.B.C.D`` or ``A.B.C.D:PORT``; returns ``None`` for
    blanks and ``#`` comments.  Hostnames are rejected on purpose:
    an explicit target list means explicit addresses, with no
    resolution step between what was authorized and what is scanned.

        >>> parse_target_line("10.0.0.1:4841  # lab PLC")
        (167772161, 4841)
        >>> parse_target_line("# comment only") is None
        True
        >>> parse_target_line("plc.lab.example")
        Traceback (most recent call last):
            ...
        ValueError: target 'plc.lab.example' is not an IPv4 literal \
(hostnames are not resolved; list addresses explicitly)
    """
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    host, _, port_text = text.partition(":")
    try:
        address = parse_ipv4(host)
    except ValueError:
        raise ValueError(
            f"target {text!r} is not an IPv4 literal (hostnames are "
            "not resolved; list addresses explicitly)"
        ) from None
    port = default_port
    if port_text:
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"target {text!r} has a malformed port") from None
        if not 0 < port < 65536:
            raise ValueError(f"target {text!r} port out of range")
    return address, port


def load_targets(
    path: str | Path, default_port: int = OPCUA_PORT
) -> list[tuple[int, int]]:
    """Read an explicit target list, preserving order, deduplicated."""
    targets: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for number, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        try:
            parsed = parse_target_line(line, default_port)
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
        if parsed is None or parsed in seen:
            continue
        seen.add(parsed)
        targets.append(parsed)
    return targets


@dataclass(frozen=True)
class LiveScanConfig:
    """Knobs for one live run (timeouts, pacing, concurrency)."""

    workers: int = 8
    connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S
    read_timeout_s: float = DEFAULT_READ_TIMEOUT_S
    connection_deadline_s: float = DEFAULT_CONNECTION_DEADLINE_S
    traverse: bool = False


class LiveScanCampaign:
    """Grab an explicit target list over real sockets.

    The pipeline is the simulated campaign's: ``GrabTask``s fanned
    through a :class:`~repro.scanner.executor.ScanExecutor` (the
    thread backend by default — ``workers`` blocking grabs in flight,
    per-connection deadlines in the transport), records assembled
    canonically by ``(address, port)``.  What changes is what stands
    in front of a connection: the
    :class:`~repro.scanner.ethics.LiveScanGate` (contact identity,
    bounded explicit list, blocklist) and a
    :class:`~repro.scanner.limits.ScanRateLimiter`.  Follow-references
    are deliberately unsupported — a live run contacts only addresses
    it was explicitly given.
    """

    def __init__(
        self,
        identity: ScannerIdentity,
        rng: DeterministicRng,
        gate: LiveScanGate | None = None,
        config: LiveScanConfig | None = None,
        limiter: ScanRateLimiter | None = None,
        budget: TraversalBudget | None = None,
        executor: ScanExecutor | None = None,
        recorder: CaptureRecorder | None = None,
    ):
        self._identity = identity
        self._rng = rng
        self._gate = gate or LiveScanGate()
        self._config = config or LiveScanConfig()
        self._limiter = limiter or ScanRateLimiter()
        self._budget_template = budget or TraversalBudget()
        self._executor = executor
        self._recorder = recorder
        # The gate runs at construction time: a campaign that cannot
        # pass it should fail before any target list exists.
        self._gate.require_contact(identity)

    def run(
        self, targets: list[tuple[int, int]], label: str | None = None
    ) -> MeasurementSnapshot:
        """Grab every allowed target; returns one dated snapshot.

        Accounting matches the simulated sweep so downstream analyses
        read both snapshots alike: ``probed`` counts targets actually
        contacted, ``excluded`` the ones the blocklist removed.
        """
        self._gate.check_target_count(len(targets))
        allowed: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        excluded = 0
        for address, port in targets:
            if (address, port) in seen:
                continue
            seen.add((address, port))
            if not self._gate.permits(address):
                excluded += 1
                continue
            allowed.append((address, port))

        config = self._config
        executor = self._executor or build_executor(
            "thread", max(config.workers, 1)
        )
        date = label or format_utc(WallClock().now())[:10]
        completed = executor.run(
            (GrabTask(address, port) for address, port in allowed),
            self._grab_sync,
            lambda task, record: [],
        )

        snapshot = MeasurementSnapshot(
            date=date,
            probed=len(allowed),
            port_open=sum(
                1 for _, record in completed if record.tcp_open
            ),
            excluded=excluded,
        )
        snapshot.records.extend(
            record
            for _, record in sorted(
                completed, key=lambda pair: pair[0].key
            )
        )
        if self._recorder is not None:
            self._recorder.finish(
                snapshot,
                traverse=config.traverse,
                budget=self._budget_template,
            )
        return snapshot

    def _grab_sync(self, task: GrabTask) -> HostRecord:
        # Defence in depth: the list was filtered above, but nothing
        # reaches a socket without passing the gate itself.
        self._gate.check_target(task.address)
        config = self._config
        network = LiveNetwork(
            connect_timeout_s=config.connect_timeout_s,
            read_timeout_s=config.read_timeout_s,
            connection_deadline_s=config.connection_deadline_s,
            limiter=self._limiter,
        )
        if self._recorder is not None:
            network = self._recorder.wrap(
                network, task.address, task.port
            )
        return grab_host(
            network,
            task.address,
            task.port,
            self._identity.client_identity,
            self._rng,
            budget=replace(self._budget_template),
            traverse=config.traverse,
        )


# --- replay lane -------------------------------------------------------------
#
# The third lane on the Transport seam.  A recorded corpus stands in
# for the network: the full grab sequence (UaClient, FrameReader,
# traversal) runs unchanged, but every connect outcome, response byte,
# and clock reading comes from the capture.  No packets leave the
# machine, so no ethics gate stands in front of it — the gate did its
# work when the corpus was recorded.


class ReplayScanCampaign:
    """Re-run a recorded scan from a capture corpus, deterministically.

    Fans one :class:`~repro.transport.capture.TargetCapture` per
    recorded target through a
    :class:`~repro.scanner.executor.ScanExecutor` (any backend —
    replay grabs are pure computation, so serial/thread/process all
    produce byte-identical snapshots, assembled in canonical
    ``(address, port)`` order like the live lane's).

    ``identity`` and ``rng`` must match the recording's: the protocol
    driver re-generates every request from them, and strict mode
    verifies each request against the recorded bytes — a mismatch
    means the corpus is stale relative to the code (a regression
    finding) or the replay was configured differently than the
    capture.  Traversal settings default to the corpus metadata the
    recorder stamped at capture time.
    """

    def __init__(
        self,
        corpus: CaptureCorpus,
        identity: ScannerIdentity,
        rng: DeterministicRng,
        executor: ScanExecutor | None = None,
        budget: TraversalBudget | None = None,
        traverse: bool | None = None,
        strict: bool = True,
    ):
        self._corpus = corpus
        self._captures = corpus.target_map()
        self._identity = identity
        self._rng = rng
        self._executor = executor or SerialScanExecutor()
        self._strict = strict
        meta = corpus.meta
        if traverse is None:
            traverse = bool(meta.get("traverse", False))
        self._traverse = traverse
        if budget is None:
            budget = TraversalBudget(**meta.get("budget", {}))
        self._budget_template = budget

    def run(self, label: str | None = None) -> MeasurementSnapshot:
        """Replay every captured target; returns one dated snapshot.

        The snapshot-level counters (``date``, ``probed``,
        ``excluded``) come from the corpus metadata, so a faithful
        replay reproduces the original snapshot byte-for-byte — not
        just its records.
        """
        meta = self._corpus.meta
        date = label or meta.get("label") or "replay"
        completed = self._executor.run(
            (
                GrabTask(capture.address, capture.port)
                for capture in self._corpus.targets
            ),
            self._replay_grab,
            lambda task, record: [],
        )
        snapshot = MeasurementSnapshot(
            date=date,
            probed=meta.get("probed", len(self._corpus.targets)),
            port_open=sum(
                1 for _, record in completed if record.tcp_open
            ),
            excluded=meta.get("excluded", 0),
        )
        snapshot.records.extend(
            record
            for _, record in sorted(
                completed, key=lambda pair: pair[0].key
            )
        )
        return snapshot

    def _replay_grab(self, task: GrabTask) -> HostRecord:
        capture = self._captures[task.key]
        network = ReplayNetwork(capture, strict=self._strict)
        record = grab_host(
            network,
            task.address,
            task.port,
            self._identity.client_identity,
            self._rng,
            budget=replace(self._budget_template),
            traverse=self._traverse,
        )
        if self._strict:
            # Over-consumption fails mid-grab; this catches the other
            # direction — a driver doing *less* than it did at capture
            # time must not pass as a faithful replay.
            network.assert_exhausted()
        return record


def parse_endpoint_url(url: str | None) -> tuple[int, int] | None:
    """Parse ``opc.tcp://a.b.c.d:port/...`` into (address, port).

        >>> parse_endpoint_url("opc.tcp://10.0.0.1:4841/plc")
        (167772161, 4841)
        >>> parse_endpoint_url("opc.tcp://10.0.0.1/")  # default port
        (167772161, 4840)
        >>> parse_endpoint_url("https://10.0.0.1/") is None
        True
    """
    if not url or not url.startswith("opc.tcp://"):
        return None
    rest = url[len("opc.tcp://") :]
    host_port = rest.split("/", 1)[0]
    host, _, port_text = host_port.partition(":")
    try:
        address = parse_ipv4(host)
    except ValueError:
        return None
    if not port_text:
        return address, OPCUA_PORT
    try:
        port = int(port_text)
    except ValueError:
        return None
    if not 0 < port < 65536:
        return None
    return address, port
