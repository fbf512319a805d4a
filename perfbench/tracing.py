"""Span recorder and layer-boundary patches for the traced benchmark run.

A traced run wraps the public function at every layer boundary of the
pipeline, each patched where its caller looks it up (``grab_host`` in
``repro.scanner.campaign``, ``candidate_stream`` in
``repro.netsim.tcpscan``, ...).  Every call records a span — name,
start, end, parent span, request id, phase — in memory; the spans are
written out when the run ends.  A layer's self time is its spans'
durations minus the part their child spans cover.

Counters the program already keeps (``crypto_suite.OP_STATS``,
``crypto.cache.cache_stats()``, ``KeyFactory.stats``) are read, not
duplicated.  Nothing in ``src/`` is modified: :meth:`Tracer.install`
swaps attributes at run time and :meth:`Tracer.uninstall` restores them.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

CLIENT_OPS = (
    "hello",
    "open_secure_channel",
    "get_endpoints",
    "find_servers",
    "create_session",
    "activate_session",
    "close_session",
    "browse",
    "read",
)
SECURE_OPS = (
    "asym_sign",
    "asym_verify",
    "asym_encrypt",
    "asym_decrypt",
    "sym_sign",
    "sym_verify",
    "sym_encrypt",
    "sym_decrypt",
)
CACHE_NAMES = (
    "rsa-public-ops",
    "rsa-private-ops",
    "rsa-known-inverses",
    "aes-key-schedule",
    "x509-parse",
)
ANALYSIS_NAMES = (
    "modes",
    "policies",
    "negotiated",
    "certs",
    "reuse",
    "access",
    "rights",
    "deficits",
    "breakdown",
    "longitudinal",
    "ipv6",
    "anomalies",
)

#: Span names whose self time counts the set-up phase; every other
#: span-derived metric counts the timed phase only, so a layer that
#: runs in both (the study-store set-up scans through the whole grab
#: stack) is attributed to the end-to-end metric it actually moves.
SETUP_SPANS = frozenset(
    {"deployments.build_hosts", "x509.sign", "core.scan_sweeps"}
)


def _layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in order."""
    m: list[tuple[str, str, str]] = [
        ("deployments.build_hosts.self_s", "s", "lower"),
        ("deployments.network_for_sweep.self_s", "s", "lower"),
        ("deployments.keys.loaded", "count", "lower"),
        ("deployments.keys.generated", "count", "lower"),
        ("x509.sign.calls", "count", "lower"),
        ("x509.sign.self_s", "s", "lower"),
        ("netsim.candidates.calls", "count", "higher"),
        ("netsim.candidates.self_s", "s", "lower"),
        ("netsim.candidates.addrs", "count", "higher"),
        ("netsim.probe.self_s", "s", "lower"),
        ("netsim.probe.addrs", "count", "higher"),
        ("netsim.probe.open_ratio", "ratio", "higher"),
        ("netsim.socket.writes", "count", "higher"),
        ("netsim.socket.stall_timeouts", "count", "lower"),
        ("scanner.sweep.calls", "count", "higher"),
        ("scanner.sweep.self_s", "s", "lower"),
        ("scanner.grab.calls", "count", "higher"),
        ("scanner.grab.self_s", "s", "lower"),
        ("scanner.grab.ms_p50", "ms", "lower"),
        ("scanner.grab.ms_tail", "ms", "lower"),
        ("scanner.grab.wait_s", "s", "lower"),
        ("scanner.grab.opcua_ratio", "ratio", "higher"),
        ("scanner.grab.error_ratio", "ratio", "lower"),
        ("scanner.traversal.calls", "count", "higher"),
        ("scanner.traversal.self_s", "s", "lower"),
    ]
    for op in CLIENT_OPS:
        m.append((f"client.{op}.calls", "count", "higher"))
        m.append((f"client.{op}.self_s", "s", "lower"))
    m += [
        ("client.failed", "count", "lower"),
        ("server.receive.calls", "count", "higher"),
        ("server.receive.self_s", "s", "lower"),
        ("transport.frames.calls", "count", "higher"),
        ("transport.frames.self_s", "s", "lower"),
        ("transport.frames.rejected", "count", "lower"),
        ("uabin.encode.calls", "count", "higher"),
        ("uabin.encode.self_s", "s", "lower"),
        ("uabin.decode.calls", "count", "higher"),
        ("uabin.decode.self_s", "s", "lower"),
        ("secure.channel.encode.self_s", "s", "lower"),
        ("secure.channel.decode.self_s", "s", "lower"),
    ]
    for op in SECURE_OPS:
        m.append((f"secure.{op}.calls", "count", "higher"))
        m.append((f"secure.{op}.s", "s", "lower"))
    m += [
        ("crypto.aes.bytes", "B", "higher"),
        ("crypto.aes.self_s", "s", "lower"),
        ("crypto.rsa.private_calls", "count", "lower"),
        ("crypto.rsa.public_calls", "count", "lower"),
        ("crypto.rsa.self_s", "s", "lower"),
    ]
    for name in CACHE_NAMES:
        m.append((f"crypto.cache.{name}.hit_ratio", "ratio", "higher"))
        m.append((f"crypto.cache.{name}.lookups", "count", "higher"))
    m += [
        ("dataset.save.calls", "count", "higher"),
        ("dataset.save.self_s", "s", "lower"),
        ("dataset.save.bytes", "B", "lower"),
        ("dataset.load.calls", "count", "higher"),
        ("dataset.load.self_s", "s", "lower"),
        ("dataset.decode.self_s", "s", "lower"),
        ("dataset.digest.self_s", "s", "lower"),
        ("dataset.integrity_failures", "count", "lower"),
    ]
    for name in ANALYSIS_NAMES:
        m.append((f"analysis.{name}.self_s", "s", "lower"))
    m += [
        ("analysis.shared_primes.calls", "count", "higher"),
        ("analysis.shared_primes.self_s", "s", "lower"),
        ("analysis.shared_primes.pairs", "count", "higher"),
        ("analysis.fold.self_s", "s", "lower"),
        ("analysis.diff.self_s", "s", "lower"),
        ("reporting.pack.self_s", "s", "lower"),
        ("reporting.pack.bytes", "B", "lower"),
        ("core.scan_sweeps.self_s", "s", "lower"),
    ]
    return m


LAYER_METRICS: list[tuple[str, str, str]] = _layer_metrics()


def span_self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Spans nest strictly (one thread, serial executor), so the covered
    part is the sum of the children's durations.
    """
    covered = [0.0] * len(starts)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[index] - starts[index]
    return [
        end - start - child
        for start, end, child in zip(starts, ends, covered)
    ]


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """``(percentile, value, n)``: the highest percentile of ``samples``
    with at least ten samples beyond it.

    With ``n`` sorted samples that is the ``n - 10``-th smallest; below
    eleven samples no such percentile exists and the maximum stands in
    (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 100.0, 0.0, 0
    if n <= 10:
        return 100.0, ordered[-1], n
    return 100.0 * (n - 10) / n, ordered[n - 11], n


class Tracer:
    """In-memory span recorder plus the boundary patches that feed it.

    ``active`` gates recording (reference computations and output
    checks run with it off); ``phase`` tags spans ``setup`` or ``run``;
    ``request`` is the id of the grab, probe batch, or store request in
    flight, inherited by every span opened beneath it.
    """

    def __init__(self) -> None:
        self.active = False
        self.phase = "setup"
        self.request: str | None = None
        self.sweep = 0
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[str | None] = []
        self.phases: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ready: dict[tuple[int, int], float] = {}
        self._probe_batches = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- span recording ----------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.phases.append(self.phase)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        if self.active:
            self.counts[f"{self.phase}:{key}"] += amount

    # --- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None, request=None, failures=None):
        """Wrap ``fn`` in a span.

        ``after(args, kwargs, result, index)`` runs on success (``index``
        names the span), ``request(args, kwargs)`` names the request the
        call starts, and exceptions are counted under ``failures``.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer = tracer.request
            if request is not None:
                tracer.request = request(args, kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index)
                tracer.request = outer
                if failures is not None:
                    tracer.count(failures)
                raise
            tracer.close(index)
            tracer.request = outer
            if after is not None:
                after(args, kwargs, result, index)
            return result

        traced.__wrapped__ = fn
        return traced

    def _span_steps(
        self, name, fn, calls_key=None, failure_key=None, failure_type=()
    ):
        """Wrap a generator function: each ``next()`` is one span;
        invocations count under ``calls_key`` and ``failure_type``
        raises under ``failure_key``."""
        tracer = self

        def traced(*args, **kwargs):
            if calls_key is not None:
                tracer.count(calls_key)
            inner = fn(*args, **kwargs)
            while True:
                index = tracer.open(name) if tracer.active else None
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except failure_type:
                    tracer.count(failure_key)
                    raise
                finally:
                    if index is not None:
                        tracer.close(index)
                yield item

        traced.__wrapped__ = fn
        return traced

    def _counting(self, fn, key=None, failure_key=None, failure_type=()):
        """Count calls under ``key`` and ``failure_type`` raises under
        ``failure_key`` — a boundary too fine-grained for spans."""
        tracer = self

        def counted(*args, **kwargs):
            if key is not None:
                tracer.count(key)
            try:
                return fn(*args, **kwargs)
            except failure_type:
                if failure_key is not None:
                    tracer.count(failure_key)
                raise

        counted.__wrapped__ = fn
        return counted

    def begin_sweep(self, sweep: int) -> None:
        """Name the sweep that request ids of later grabs and probe
        batches carry; readiness bookkeeping starts afresh."""
        self.sweep = sweep
        self._probe_batches = 0
        self._ready.clear()

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    # --- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Patch every layer boundary; :meth:`uninstall` restores them."""
        from repro.analysis import pipeline, reuse
        from repro.analysis.diff import StudySummary
        from repro.client.client import UaClient
        from repro.core.study import Study
        from repro.crypto.aes import AesCbc
        from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
        from repro.dataset import catalog, store
        from repro.dataset.store import StoreIntegrityError, StudyStore
        from repro.deployments.evolution import StudyTimeline
        from repro.deployments.population import PopulationBuilder
        from repro.netsim import tcpscan
        from repro.netsim.net import NetworkView, SimSocket
        from repro.reporting import pack
        from repro.scanner import campaign, grabber
        from repro.scanner.campaign import ScanCampaign, parse_endpoint_url
        from repro.secure import channel
        from repro.server.engine import ServerConnection
        from repro.transport.connection import FrameReader
        from repro.transport.messages import TransportTimeout
        from repro.x509.builder import CertificateBuilder

        span = self._span
        tracer = self

        # deployments / x509 / core: the set-up layers.
        self._patch(PopulationBuilder, "build_hosts", span(
            "deployments.build_hosts", PopulationBuilder.build_hosts))
        self._patch(StudyTimeline, "network_for_sweep", span(
            "deployments.network_for_sweep",
            StudyTimeline.network_for_sweep))
        for attribute in ("self_sign", "sign_with_ca"):
            self._patch(CertificateBuilder, attribute, span(
                "x509.sign", CertificateBuilder.__dict__[attribute]))
        self._patch(Study, "scan_sweeps", span(
            "core.scan_sweeps", Study.scan_sweeps))

        # netsim: candidate generation, probing, socket traffic.
        def after_candidates(args, kwargs, result, index):
            tracer.count("netsim.candidates.addrs", len(result))

        self._patch(tcpscan, "candidate_stream", span(
            "netsim.candidates", tcpscan.candidate_stream,
            after=after_candidates))

        def probe_request(args, kwargs):
            tracer._probe_batches += 1
            return f"probe/{tracer.sweep}/{tracer._probe_batches}"

        def after_probe(args, kwargs, result, index):
            addresses, port = args[1], args[2]
            tracer.count("netsim.probe.addrs", len(addresses))
            tracer.count("netsim.probe.open", len(result))
            end = tracer.ends[index]
            for address in result:
                tracer._ready[(address, port)] = end

        self._patch(NetworkView, "probe_many", span(
            "netsim.probe", NetworkView.probe_many,
            after=after_probe, request=probe_request))
        self._patch(SimSocket, "write", self._counting(
            SimSocket.write, key="netsim.socket.writes"))
        self._patch(SimSocket, "read", self._counting(
            SimSocket.read, failure_key="netsim.socket.stall_timeouts",
            failure_type=TransportTimeout))

        # scanner: sweeps, grabs (with queue wait), traversal.
        self._patch(ScanCampaign, "run_sweep", span(
            "scanner.sweep", ScanCampaign.run_sweep))

        def grab_request(args, kwargs):
            return f"grab/{tracer.sweep}/{args[1]}/{args[2]}"

        def after_grab(args, kwargs, record, index):
            # Wait: from the moment the grab became due (its probe
            # batch reported the port open, or the grab naming it as
            # an endpoint finished) until it started.
            ready = tracer._ready.pop((args[1], args[2]), None)
            if ready is not None:
                tracer.count(
                    "scanner.grab.wait_s",
                    max(0.0, tracer.starts[index] - ready))
            end = tracer.ends[index]
            tracer.count("scanner.grab.opcua", int(record.is_opcua))
            tracer.count("scanner.grab.errors", int(record.error is not None))
            if not kwargs.get("via_reference", False):
                for endpoint in record.endpoints:
                    target = parse_endpoint_url(endpoint.endpoint_url)
                    if target is not None:
                        tracer._ready.setdefault(target, end)

        self._patch(campaign, "grab_host", span(
            "scanner.grab", campaign.grab_host,
            after=after_grab, request=grab_request))
        self._patch(grabber, "traverse_address_space", span(
            "scanner.traversal", grabber.traverse_address_space))

        # client / server / transport / uabin / secure / crypto.
        for op in CLIENT_OPS:
            attribute = "read_attributes" if op == "read" else op
            self._patch(UaClient, attribute, span(
                f"client.{op}", UaClient.__dict__[attribute],
                failures="client.failed"))
        self._patch(ServerConnection, "receive", span(
            "server.receive", ServerConnection.receive))
        self._patch(FrameReader, "next_frame", span(
            "transport.frames", FrameReader.next_frame,
            failures="transport.frames.rejected"))
        self._patch(channel, "encode_service", span(
            "uabin.encode", channel.encode_service))
        self._patch(channel, "decode_service", span(
            "uabin.decode", channel.decode_service))
        self._patch(channel._ChannelBase, "encode_message", span(
            "secure.channel.encode", channel._ChannelBase.encode_message))
        self._patch(channel._ChannelBase, "decode_message", span(
            "secure.channel.decode", channel._ChannelBase.decode_message))

        def after_aes(args, kwargs, result, index):
            tracer.count("crypto.aes.bytes", len(args[1]))

        for attribute in ("encrypt", "decrypt"):
            self._patch(AesCbc, attribute, span(
                "crypto.aes", AesCbc.__dict__[attribute], after=after_aes))

        def rsa_counter(key):
            def after(args, kwargs, result, index):
                tracer.count(key)

            return after

        # ``raw_verify``/``raw_sign`` are class-level aliases bound to
        # the original functions, so each name is patched on its own.
        for attribute in ("raw_encrypt", "raw_verify"):
            self._patch(RsaPublicKey, attribute, span(
                "crypto.rsa", RsaPublicKey.__dict__[attribute],
                after=rsa_counter("crypto.rsa.public_calls")))
        for attribute in ("raw_decrypt", "raw_sign"):
            self._patch(RsaPrivateKey, attribute, span(
                "crypto.rsa", RsaPrivateKey.__dict__[attribute],
                after=rsa_counter("crypto.rsa.private_calls")))

        # dataset: store writes, validated reads, decode, digests.
        def after_save(args, kwargs, key, index):
            entry = args[0].entry_dir(key)
            tracer.count("dataset.save.bytes", sum(
                path.stat().st_size for path in entry.iterdir()
                if path.is_file()
            ))

        self._patch(StudyStore, "save", span(
            "dataset.save", StudyStore.save, after=after_save))
        self._patch(StudyStore, "load", span(
            "dataset.load", StudyStore.load))
        self._patch(StudyStore, "iter_validated", self._span_steps(
            "dataset.load", StudyStore.iter_validated,
            calls_key="dataset.load.calls",
            failure_key="dataset.integrity_failures",
            failure_type=StoreIntegrityError))
        self._patch(store, "iter_snapshots", self._span_steps(
            "dataset.decode", store.iter_snapshots))
        for attribute in ("snapshot_digest", "sweep_digests"):
            self._patch(store, attribute, span(
                "dataset.digest", store.__dict__[attribute]))

        # analysis: the registry, shared primes, the diff fold.
        for name in list(pipeline.ANALYSES):
            pipeline.ANALYSES[name] = span(
                f"analysis.{name}", pipeline.ANALYSES[name])
        self._patches.append((pipeline, "ANALYSES", None))

        def after_primes(args, kwargs, result, index):
            moduli = {
                record.certificate.modulus
                for record in args[0]
                if record.certificate is not None
            }
            tracer.count(
                "analysis.shared_primes.pairs",
                len(moduli) * (len(moduli) - 1) // 2,
            )

        self._patch(reuse, "find_shared_primes", span(
            "analysis.shared_primes", reuse.find_shared_primes,
            after=after_primes))
        self._patch(StudySummary, "fold", span(
            "analysis.fold", StudySummary.fold))
        self._patch(catalog, "diff_summaries", span(
            "analysis.diff", catalog.diff_summaries))

        # reporting: pack export.
        def after_pack(args, kwargs, manifest, index):
            tracer.count("reporting.pack.bytes", sum(
                artifact["bytes"]
                for artifact in manifest["artifacts"].values()
            ))

        self._patch(pack, "write_pack", span(
            "reporting.pack", pack.write_pack, after=after_pack))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        from repro.analysis import pipeline

        for owner, attribute, original in reversed(self._patches):
            if owner is pipeline and attribute == "ANALYSES":
                for name, fn in list(pipeline.ANALYSES.items()):
                    pipeline.ANALYSES[name] = fn.__wrapped__
                continue
            setattr(owner, attribute, original)
        self._patches.clear()

    # --- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict]:
        """``(self_s, calls, durations)`` per ``phase:span name``."""
        own = span_self_times(self.starts, self.ends, self.parents)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        for index, name in enumerate(self.names):
            key = f"{self.phases[index]}:{name}"
            self_s[key] += own[index]
            calls[key] += 1
            durations[key].append(self.ends[index] - self.starts[index])
        return self_s, calls, durations

    def layer_values(self, extra: dict[str, float]) -> dict[str, float]:
        """Every :data:`LAYER_METRICS` value (0 where a layer idled).

        ``extra`` carries the values read from counters the program
        keeps itself (OP_STATS, cache stats, KeyFactory stats).
        """
        self_s, calls, durations = self.self_times()
        counts = self.counts

        def phase_of(span_name: str) -> str:
            return "setup" if span_name in SETUP_SPANS else "run"

        def span_self(span_name: str) -> float:
            if span_name == "deployments.network_for_sweep":
                return sum(
                    self_s[f"{phase}:{span_name}"]
                    for phase in ("setup", "run")
                )
            return self_s[f"{phase_of(span_name)}:{span_name}"]

        def span_calls(span_name: str) -> int:
            return calls[f"{phase_of(span_name)}:{span_name}"]

        def run_count(key: str) -> float:
            return counts[f"run:{key}"]

        def ratio(numerator: float, base: float) -> float:
            return numerator / base if base else 0.0

        values: dict[str, float] = {}
        for name, _, _ in LAYER_METRICS:
            if name.endswith(".self_s"):
                values[name] = span_self(name[: -len(".self_s")])
            elif name.endswith(".calls"):
                values[name] = span_calls(name[: -len(".calls")])
        grabs = durations["run:scanner.grab"]
        _, tail, _ = tail_percentile(grabs)
        values.update({
            "netsim.candidates.addrs": run_count("netsim.candidates.addrs"),
            "netsim.probe.addrs": run_count("netsim.probe.addrs"),
            "netsim.probe.open_ratio": ratio(
                run_count("netsim.probe.open"),
                run_count("netsim.probe.addrs")),
            "netsim.socket.writes": run_count("netsim.socket.writes"),
            "netsim.socket.stall_timeouts": run_count(
                "netsim.socket.stall_timeouts"),
            "scanner.grab.ms_p50": (
                1000 * statistics.median(grabs) if grabs else 0.0),
            "scanner.grab.ms_tail": 1000 * tail,
            "scanner.grab.wait_s": run_count("scanner.grab.wait_s"),
            "scanner.grab.opcua_ratio": ratio(
                run_count("scanner.grab.opcua"), len(grabs)),
            "scanner.grab.error_ratio": ratio(
                run_count("scanner.grab.errors"), len(grabs)),
            "client.failed": run_count("client.failed"),
            "transport.frames.rejected": run_count(
                "transport.frames.rejected"),
            "crypto.aes.bytes": run_count("crypto.aes.bytes"),
            "crypto.rsa.private_calls": run_count(
                "crypto.rsa.private_calls"),
            "crypto.rsa.public_calls": run_count("crypto.rsa.public_calls"),
            "dataset.save.bytes": run_count("dataset.save.bytes"),
            "dataset.load.calls": run_count("dataset.load.calls"),
            "dataset.integrity_failures": run_count(
                "dataset.integrity_failures"),
            "analysis.shared_primes.pairs": run_count(
                "analysis.shared_primes.pairs"),
            "reporting.pack.bytes": run_count("reporting.pack.bytes"),
        })
        values.update(extra)
        return values

    def dump(self, path: Path) -> int:
        """Write every span as gzipped JSON lines; returns the count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(path.name + ".tmp")
        with gzip.open(temp, "wt", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start": round(self.starts[index], 7),
                    "end": round(self.ends[index], 7),
                    "parent": self.parents[index],
                    "request": self.requests[index],
                    "phase": self.phases[index],
                }) + "\n")
        os.replace(temp, path)
        return len(self.names)
