"""``repro scan``: live lab scans, capture recording, and replay.

The live lane sends real packets and therefore sits behind hard
ethics gates (explicit ``--live``, explicit target list, mandatory
contact); the replay lane re-runs a recorded corpus with no sockets
at all.  Both share the scanner-identity construction so a corpus
recorded here replays byte-identically anywhere.
"""

from __future__ import annotations

from repro.cli.options import add_store, resolve_store
from repro.scanner.executor import EXECUTOR_NAMES


def register(commands) -> None:
    scan = commands.add_parser(
        "scan",
        help=(
            "live scan of an explicit target list (authorized lab "
            "networks only; hard ethics gates, off by default), "
            "optionally recorded to — or replayed from — a capture "
            "corpus"
        ),
    )
    scan.add_argument(
        "--live",
        action="store_true",
        help=(
            "confirm that real packets should leave this machine; "
            "without it the command refuses to run"
        ),
    )
    scan.add_argument(
        "--targets",
        metavar="FILE",
        help=(
            "explicit target list, one IPv4[:port] per line "
            "(# comments allowed; hostnames rejected — no address "
            "generation or resolution of any kind); required unless "
            "--replay is given"
        ),
    )
    scan.add_argument(
        "--record",
        metavar="CORPUS",
        help=(
            "record every transport operation of this live scan into "
            "a replayable capture corpus at CORPUS (.gz → canonical "
            "gzip); the recording lane still runs behind the full "
            "ethics gate"
        ),
    )
    scan.add_argument(
        "--replay",
        metavar="CORPUS",
        help=(
            "replay a previously recorded corpus instead of scanning "
            "— no packets leave the machine, so neither --live nor "
            "--targets is needed; the scanner identity is rebuilt "
            "from the corpus metadata and every request is verified "
            "against the recording"
        ),
    )
    scan.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default=None,
        help=(
            "replay fan-out backend (replay records are identical on "
            "every backend; live scans always use thread)"
        ),
    )
    scan.add_argument(
        "--profile",
        action="store_true",
        help=(
            "emit per-stage timing/allocation stats after the scan "
            "(cProfile top functions, per-stage task counters, and "
            "crypto-cache hit rates); records are unaffected"
        ),
    )
    scan.add_argument(
        "--contact",
        metavar="EMAIL",
        help=(
            "mandatory contact e-mail, embedded in the scanner "
            "certificate and application name so operators can reach "
            "you (paper Appendix A.1)"
        ),
    )
    scan.add_argument(
        "--contact-url",
        metavar="URL",
        default="https://scan-research.example.org",
        help="opt-out URL advertised in the scanner identity",
    )
    scan.add_argument(
        "--port", type=int, default=4840,
        help="default port for targets listed without one",
    )
    scan.add_argument(
        "--blocklist",
        metavar="FILE",
        help="opt-out CIDR blocklist, one block per line",
    )
    scan.add_argument(
        "--out",
        metavar="PATH",
        help="write the snapshot as JSONL (dataset schema)",
    )
    scan.add_argument(
        "--workers", type=int, default=8,
        help="grabs in flight at once (live scans: one thread each)",
    )
    scan.add_argument(
        "--rate", type=float, default=10.0,
        help="global connection rate limit (connections/second)",
    )
    scan.add_argument(
        "--per-host-interval", type=float, default=1.0,
        help="minimum seconds between connections to one host",
    )
    scan.add_argument(
        "--connect-timeout", type=float, default=5.0,
        help="TCP connect timeout in seconds",
    )
    scan.add_argument(
        "--read-timeout", type=float, default=5.0,
        help="per-read timeout in seconds",
    )
    scan.add_argument(
        "--deadline", type=float, default=60.0,
        help="hard per-connection lifetime ceiling in seconds",
    )
    scan.add_argument(
        "--max-targets", type=int, default=None,
        help="refuse target lists larger than this (default 4096)",
    )
    scan.add_argument(
        "--traverse",
        action="store_true",
        help=(
            "walk accessible address spaces (budgeted, read-only); "
            "off by default for live runs"
        ),
    )
    scan.add_argument(
        "--key-bits",
        type=int,
        default=2048,
        choices=(512, 1024, 2048),
        help=(
            "scanner RSA key size (2048 for real runs; smaller only "
            "for loopback tests, where key generation speed matters)"
        ),
    )
    scan.add_argument(
        "--seed", type=int, default=20200830,
        help="seed for the scanner's deterministic nonce streams",
    )
    add_store(scan)
    scan.set_defaults(handler=cmd_scan)


def _scanner_identity(
    seed: int,
    contact: str,
    contact_url: str,
    key_bits: int,
    not_before=None,
):
    """Build the scanner identity used by the live and replay lanes.

    Everything about it is deterministic given the arguments —
    including ``not_before``, which defaults to *today* for live scans
    and is recorded in a capture corpus so replay reconstructs the
    byte-identical certificate on any later day.
    """
    import os
    from datetime import datetime, timezone
    from pathlib import Path

    from repro.client import ClientIdentity
    from repro.deployments.keyfactory import KeyFactory
    from repro.scanner.campaign import ScannerIdentity
    from repro.util.rng import DeterministicRng
    from repro.x509.builder import make_self_signed

    contact = (contact or "").strip()
    if "@" not in contact:
        raise SystemExit(
            "repro: error: --contact EMAIL is mandatory for live scans "
            "(it is embedded in the scanner certificate so operators "
            "can reach you)"
        )
    if not_before is None:
        not_before = datetime.now(timezone.utc).replace(
            hour=0, minute=0, second=0, microsecond=0
        )
    cache = os.environ.get("REPRO_KEYCACHE")
    factory = KeyFactory(seed, cache_dir=Path(cache) if cache else None)
    keys = factory.key_for(f"live-scanner-{key_bits}", key_bits)
    rng = DeterministicRng(seed, "live-scanner")
    certificate = make_self_signed(
        keys,
        common_name="research-scanner",
        application_uri="urn:repro:live-scanner",
        not_before=not_before,
        hash_name="sha256",
        rng=rng.substream("cert"),
        organization=f"Research scanner (contact: {contact})",
    )
    client = ClientIdentity(
        application_uri="urn:repro:live-scanner",
        application_name=(
            f"Research scanner (contact: {contact}; "
            f"opt out: {contact_url})"
        ),
        certificate=certificate,
        private_key=keys.private,
    )
    return ScannerIdentity(client, contact_url=contact_url), not_before


def _print_scan_summary(snapshot) -> None:
    from repro.util.ipaddr import format_ipv4

    opcua = sum(1 for r in snapshot.records if r.is_opcua)
    accessible = sum(
        1 for r in snapshot.records if r.anonymous_accessible()
    )
    print(
        f"{snapshot.probed} scanned / {snapshot.excluded} blocklisted / "
        f"{snapshot.port_open} tcp open / {opcua} OPC UA / "
        f"{accessible} anonymously accessible"
    )
    for record in snapshot.records:
        if record.tcp_open and record.is_opcua:
            status = "opc-ua"
            if record.anonymous_accessible():
                status += " anonymous-access"
        elif record.tcp_open:
            status = record.error or "open"
        else:
            status = record.error or "closed"
        if record.error_category:
            status += f" [{record.error_category}]"
        print(f"  {format_ipv4(record.ip)}:{record.port}  {status}")


def _write_snapshot_out(args, snapshot) -> None:
    if args.out:
        from repro.dataset.io import write_snapshots

        write_snapshots(args.out, [snapshot])
        print(f"wrote {args.out}")


def _profile_scan(args):
    """``--profile`` plumbing shared by the live and replay lanes.

    Returns ``(wrap_executor, session, emit)``: ``wrap_executor``
    decorates the lane's executor with per-stage counters,
    ``session`` is the :class:`~repro.util.profiling.ProfileSession`
    context manager around the campaign (or ``None`` when profiling is
    off), and ``emit`` prints the report after the summary.
    """
    import contextlib

    if not getattr(args, "profile", False):
        return (lambda executor: executor), contextlib.nullcontext(), None

    from repro.crypto.cache import cache_stats
    from repro.scanner.executor import ProfiledScanExecutor
    from repro.util.profiling import ProfileSession, StageStats

    stats = StageStats()
    session = ProfileSession()

    def emit() -> None:
        print()
        print("--- profile: per-stage counters ---")
        print(stats.render())
        print()
        print("--- profile: crypto caches ---")
        for entry in cache_stats():
            print(
                f"{entry['name']:<18} size={entry['size']:<5} "
                f"hits={entry['hits']:<7} misses={entry['misses']:<7} "
                f"hit_rate={entry['hit_rate']:.2%}"
            )
        print()
        print("--- profile: secure-channel crypto ops ---")
        from repro.secure.crypto_suite import OP_STATS

        print(OP_STATS.render())
        print()
        print("--- profile: hot functions (cProfile) ---")
        print(session.stats_text())

    return (
        lambda executor: ProfiledScanExecutor(executor, stats),
        session,
        emit,
    )


def cmd_replay(args) -> int:
    """Replay lane: recorded corpus in, byte-identical records out."""
    from pathlib import Path

    from repro.dataset.store import StoreIntegrityError
    from repro.scanner.campaign import ReplayScanCampaign
    from repro.transport.capture import CaptureFormatError, read_corpus
    from repro.transport.replay import ReplayError
    from repro.util.rng import DeterministicRng
    from repro.util.simtime import parse_utc

    source = Path(args.replay)
    try:
        if source.exists():
            corpus = read_corpus(source)
        else:
            store = resolve_store(args)
            if store is None:
                raise SystemExit(
                    f"repro: error: no corpus file at {source} "
                    "(pass --store DIR to replay a stored corpus key)"
                )
            try:
                corpus = store.load_corpus(args.replay)
            except KeyError as exc:
                raise SystemExit(f"repro: error: {exc.args[0]}")
    except (CaptureFormatError, StoreIntegrityError) as exc:
        raise SystemExit(f"repro: error: corpus: {exc}")

    meta = corpus.meta
    seed = meta.get("seed", args.seed)
    contact = meta.get("contact") or args.contact
    if not contact or "@" not in contact:
        raise SystemExit(
            "repro: error: this corpus does not carry the scanner "
            "contact it was recorded with (it was recorded through "
            "the library API, not `scan --record`); pass --contact "
            "with the recording's contact e-mail so the identity — "
            "and with it every request byte — can be rebuilt for "
            "strict replay verification"
        )
    not_before = meta.get("not_before")
    identity, _ = _scanner_identity(
        seed,
        contact,
        meta.get("contact_url", args.contact_url),
        meta.get("key_bits", args.key_bits),
        not_before=parse_utc(not_before) if not_before else None,
    )
    from repro.scanner.executor import build_executor

    # Replay grabs are pure computation, so serial is the sensible
    # default; any backend produces identical records.
    name = args.executor or "serial"
    wrap_executor, session, emit_profile = _profile_scan(args)
    campaign = ReplayScanCampaign(
        corpus,
        identity,
        DeterministicRng(seed, meta.get("rng_namespace", "live-scan")),
        executor=wrap_executor(
            build_executor(
                name, 1 if name == "serial" else max(args.workers, 1)
            )
        ),
    )
    from repro.scanner.executor import ScanExecutorError

    try:
        with session:
            snapshot = campaign.run()
    except ReplayError as exc:
        raise SystemExit(f"repro: replay: {exc}")
    except ScanExecutorError as exc:
        # Pooled backends wrap worker failures; a replay divergence
        # inside a worker must still surface as the friendly replay
        # message, not a traceback.
        if isinstance(exc.cause, ReplayError):
            raise SystemExit(f"repro: replay: {exc.cause}")
        raise
    print(f"replayed {len(corpus.targets)} captured targets "
          f"from {args.replay}")
    _print_scan_summary(snapshot)
    if emit_profile is not None:
        emit_profile()
    _write_snapshot_out(args, snapshot)
    return 0


def cmd_scan(args) -> int:
    """Live lane: explicit targets, hard ethics gates, real sockets."""
    from repro.netsim.blocklist import Blocklist
    from repro.scanner.campaign import (
        LiveScanCampaign,
        LiveScanConfig,
        load_targets,
    )
    from repro.scanner.ethics import (
        DEFAULT_MAX_LIVE_TARGETS,
        EthicsViolation,
        LiveScanGate,
    )
    from repro.scanner.limits import ScanRateLimiter
    from repro.util.rng import DeterministicRng
    from repro.util.simtime import format_utc

    if args.replay:
        if args.live or args.record or args.targets:
            raise SystemExit(
                "repro: error: --replay re-runs recorded traffic (the "
                "corpus is the target list) and cannot be combined "
                "with --live, --record, or --targets"
            )
        return cmd_replay(args)
    if not args.live:
        raise SystemExit(
            "repro: error: `repro scan` sends real packets and only "
            "runs with an explicit --live flag (the simulated study "
            "is `repro study`; a recorded corpus replays with "
            "--replay CORPUS)"
        )
    if not args.targets:
        raise SystemExit(
            "repro: error: --targets FILE is required for live scans"
        )
    try:
        targets = load_targets(args.targets, default_port=args.port)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro: error: {exc}")
    blocklist = Blocklist()
    if args.blocklist:
        try:
            with open(args.blocklist) as handle:
                for line in handle:
                    block = line.split("#", 1)[0].strip()
                    if block:
                        blocklist.add(block)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro: error: blocklist: {exc}")

    identity, not_before = _scanner_identity(
        args.seed, args.contact, args.contact_url, args.key_bits
    )
    gate = LiveScanGate(
        blocklist=blocklist,
        max_targets=(
            DEFAULT_MAX_LIVE_TARGETS
            if args.max_targets is None
            else args.max_targets
        ),
    )
    config = LiveScanConfig(
        workers=args.workers,
        connect_timeout_s=args.connect_timeout,
        read_timeout_s=args.read_timeout,
        connection_deadline_s=args.deadline,
        traverse=args.traverse,
    )
    try:
        limiter = ScanRateLimiter(args.rate, args.per_host_interval)
    except ValueError as exc:
        raise SystemExit(f"repro: error: {exc}")
    recorder = None
    if args.record:
        from repro.transport.capture import CaptureRecorder

        # Everything replay needs to rebuild this exact scanner:
        # the corpus is self-describing, so `repro scan --replay`
        # works on any machine, any day.
        recorder = CaptureRecorder(
            {
                "seed": args.seed,
                "rng_namespace": "live-scan",
                "contact": (args.contact or "").strip(),
                "contact_url": args.contact_url,
                "key_bits": args.key_bits,
                "not_before": format_utc(not_before),
            }
        )
    wrap_executor, session, emit_profile = _profile_scan(args)
    executor = None
    if args.profile:
        # Build the live lane's default backend explicitly so the
        # profiling wrapper can decorate it.
        from repro.scanner.executor import build_executor

        executor = wrap_executor(
            build_executor("thread", max(config.workers, 1))
        )
    try:
        campaign = LiveScanCampaign(
            identity,
            DeterministicRng(args.seed, "live-scan"),
            gate=gate,
            config=config,
            limiter=limiter,
            recorder=recorder,
            executor=executor,
        )
        with session:
            snapshot = campaign.run(targets)
    except EthicsViolation as exc:
        raise SystemExit(f"repro: ethics gate: {exc}")

    _print_scan_summary(snapshot)
    if emit_profile is not None:
        emit_profile()
    if recorder is not None:
        from repro.transport.capture import write_corpus

        corpus = recorder.corpus()
        write_corpus(args.record, corpus)
        print(f"recorded {len(corpus.targets)} targets to {args.record}")
        store = resolve_store(args)
        if store is not None:
            key = store.save_corpus(corpus)
            print(f"stored corpus {key} under {store.root}")
    _write_snapshot_out(args, snapshot)
    return 0
