"""CLI tests (cheap commands only; `study` is covered by benchmarks)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.command == "study"
        assert args.seed == 20200830

    def test_experiment_validates_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_experiment_accepts_known_id(self):
        args = build_parser().parse_args(["experiment", "fig3", "--seed", "7"])
        assert args.experiment_id == "fig3"
        assert args.seed == 7

    def test_dataset_needs_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset"])

    def test_store_flags(self):
        args = build_parser().parse_args(["study", "--store", "/tmp/s"])
        assert args.store == "/tmp/s"
        assert not args.no_store
        args = build_parser().parse_args(["dataset", "out.jsonl", "--no-store"])
        assert args.no_store

    def test_study_scan_only(self):
        args = build_parser().parse_args(["study", "--scan-only"])
        assert args.scan_only

    def test_analyze_flags(self):
        args = build_parser().parse_args(
            ["analyze", "--store", "/tmp/s", "--analysis", "modes",
             "--analysis", "deficits", "--json", "out.json"]
        )
        assert args.analysis == ["modes", "deficits"]
        assert args.json == "out.json"

    def test_analyze_rejects_unknown_analysis(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--analysis", "nope"])

    def test_analyze_choices_pin_the_registry(self):
        """cli.ANALYZE_CHOICES mirrors the registry without importing
        the analysis stack at parser-build time."""
        from repro.analysis.pipeline import ANALYSIS_NAMES
        from repro.cli import ANALYZE_CHOICES

        assert ANALYZE_CHOICES == ANALYSIS_NAMES


class TestCheapCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "ipv6" in out

    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "Basic256Sha256" in out
        assert "deprecated" in out


class TestAnalyzeErrors:
    def test_analyze_without_store_exits(self, monkeypatch):
        monkeypatch.delenv("REPRO_STUDY_STORE", raising=False)
        with pytest.raises(SystemExit, match="needs a study store"):
            main(["analyze"])

    def test_analyze_empty_store_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no stored study"):
            main(["analyze", "--store", str(tmp_path / "empty")])

    def test_no_store_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STUDY_STORE", str(tmp_path / "env-store"))
        with pytest.raises(SystemExit, match="needs a study store"):
            main(["analyze", "--no-store"])


class TestScanParser:
    def test_targets_required_for_live(self):
        # Enforced in cmd_scan rather than the parser: --replay runs
        # without a target list (the corpus *is* the target list).
        with pytest.raises(SystemExit, match="--targets"):
            main(["scan", "--live"])

    def test_replay_excludes_live_and_record(self):
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["scan", "--replay", "c.jsonl.gz", "--live"])
        with pytest.raises(SystemExit, match="cannot be combined"):
            main(["scan", "--replay", "c.jsonl.gz", "--record", "x"])

    def test_replay_missing_corpus_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no corpus file"):
            main(
                ["scan", "--replay", str(tmp_path / "nope.jsonl.gz"),
                 "--no-store"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(
            ["scan", "--live", "--targets", "t.txt"]
        )
        assert args.live
        assert args.port == 4840
        assert args.key_bits == 2048
        assert not args.traverse

    def test_key_bits_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scan", "--live", "--targets", "t", "--key-bits", "768"]
            )


class TestScanCommand:
    def test_refuses_without_live_flag(self, tmp_path):
        listing = tmp_path / "targets.txt"
        listing.write_text("127.0.0.1\n")
        with pytest.raises(SystemExit, match="--live"):
            main(["scan", "--targets", str(listing)])

    def test_refuses_without_contact(self, tmp_path):
        listing = tmp_path / "targets.txt"
        listing.write_text("127.0.0.1\n")
        with pytest.raises(SystemExit, match="--contact"):
            main(["scan", "--live", "--targets", str(listing)])

    def test_refuses_malformed_targets(self, tmp_path, capsys):
        listing = tmp_path / "targets.txt"
        listing.write_text("plc.lab.example\n")
        with pytest.raises(SystemExit, match="IPv4 literal"):
            main(
                [
                    "scan", "--live", "--targets", str(listing),
                    "--contact", "lab@example.org",
                ]
            )

    def test_loopback_scan_end_to_end(
        self, tmp_path, monkeypatch, capsys, rsa_1024
    ):
        """The whole CLI path: identity, gates, thread executor, real
        socket, JSONL output."""
        from repro.dataset.io import read_snapshots
        from repro.secure.policies import POLICY_NONE
        from repro.server import EndpointConfig, TcpServerHost
        from repro.uabin.enums import MessageSecurityMode, UserTokenType
        from repro.util.rng import DeterministicRng
        from tests.server.helpers import build_server

        # Key generation must stay in the test sandbox, not the
        # committed cache.
        monkeypatch.setenv("REPRO_KEYCACHE", str(tmp_path / "keys"))

        server = build_server(
            DeterministicRng(5, "cli-live"),
            rsa_1024,
            endpoint_configs=[
                EndpointConfig(MessageSecurityMode.NONE, POLICY_NONE)
            ],
            token_types=[UserTokenType.ANONYMOUS],
        )
        out = tmp_path / "live.jsonl"
        with TcpServerHost(server) as (host, port):
            listing = tmp_path / "targets.txt"
            listing.write_text(f"127.0.0.1:{port}\n")
            code = main(
                [
                    "scan",
                    "--live",
                    "--targets", str(listing),
                    "--contact", "lab@example.org",
                    "--key-bits", "512",
                    "--rate", "1000",
                    "--per-host-interval", "0",
                    "--out", str(out),
                ]
            )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "1 tcp open / 1 OPC UA" in stdout
        snapshots = read_snapshots(out)
        assert len(snapshots) == 1
        record = snapshots[0].records[0]
        assert record.is_opcua
        assert record.anonymous_accessible()

    def test_record_then_replay_end_to_end(
        self, tmp_path, monkeypatch, capsys, rsa_1024
    ):
        """`scan --live --record` then `scan --replay`: the corpus is
        self-describing (identity rebuilt from metadata) and the
        replayed snapshot is byte-identical to the live one."""
        from repro.core.golden import snapshot_digest
        from repro.dataset.io import read_snapshots
        from repro.secure.policies import POLICY_NONE
        from repro.server import EndpointConfig, TcpServerHost
        from repro.uabin.enums import MessageSecurityMode, UserTokenType
        from repro.util.rng import DeterministicRng
        from tests.server.helpers import build_server

        monkeypatch.setenv("REPRO_KEYCACHE", str(tmp_path / "keys"))
        server = build_server(
            DeterministicRng(5, "cli-replay"),
            rsa_1024,
            endpoint_configs=[
                EndpointConfig(MessageSecurityMode.NONE, POLICY_NONE)
            ],
            token_types=[UserTokenType.ANONYMOUS],
        )
        corpus = tmp_path / "corpus.jsonl.gz"
        live_out = tmp_path / "live.jsonl"
        replay_out = tmp_path / "replay.jsonl"
        with TcpServerHost(server) as (host, port):
            listing = tmp_path / "targets.txt"
            listing.write_text(f"127.0.0.1:{port}\n")
            code = main(
                [
                    "scan", "--live",
                    "--targets", str(listing),
                    "--contact", "lab@example.org",
                    "--key-bits", "512",
                    "--rate", "1000",
                    "--per-host-interval", "0",
                    "--record", str(corpus),
                    "--out", str(live_out),
                    "--no-store",
                ]
            )
        assert code == 0
        assert "recorded 1 targets" in capsys.readouterr().out
        # Replay long after the server is gone: corpus + metadata only.
        code = main(
            ["scan", "--replay", str(corpus), "--out", str(replay_out),
             "--no-store"]
        )
        assert code == 0
        assert "replayed 1 captured targets" in capsys.readouterr().out
        live = read_snapshots(live_out)[0]
        replayed = read_snapshots(replay_out)[0]
        assert replayed.records[0].is_opcua
        assert snapshot_digest(replayed) == snapshot_digest(live)

    def test_profile_flag_reports_without_changing_records(
        self, tmp_path, monkeypatch, capsys, rsa_1024
    ):
        """--profile appends stage counters, cache hit rates, and a
        cProfile report after the summary — and the records stay
        byte-identical to an unprofiled run."""
        from repro.core.golden import snapshot_digest
        from repro.dataset.io import read_snapshots
        from repro.secure.policies import POLICY_NONE
        from repro.server import EndpointConfig, TcpServerHost
        from repro.uabin.enums import MessageSecurityMode, UserTokenType
        from repro.util.rng import DeterministicRng
        from tests.server.helpers import build_server

        monkeypatch.setenv("REPRO_KEYCACHE", str(tmp_path / "keys"))
        server = build_server(
            DeterministicRng(5, "cli-profile"),
            rsa_1024,
            endpoint_configs=[
                EndpointConfig(MessageSecurityMode.NONE, POLICY_NONE)
            ],
            token_types=[UserTokenType.ANONYMOUS],
        )
        corpus = tmp_path / "corpus.jsonl.gz"
        with TcpServerHost(server) as (host, port):
            listing = tmp_path / "targets.txt"
            listing.write_text(f"127.0.0.1:{port}\n")
            code = main(
                [
                    "scan", "--live",
                    "--targets", str(listing),
                    "--contact", "lab@example.org",
                    "--key-bits", "512",
                    "--rate", "1000",
                    "--per-host-interval", "0",
                    "--record", str(corpus),
                    "--no-store",
                    "--profile",
                ]
            )
        assert code == 0
        live_stdout = capsys.readouterr().out
        assert "--- profile: per-stage counters ---" in live_stdout
        assert "--- profile: crypto caches ---" in live_stdout
        assert "--- profile: hot functions (cProfile) ---" in live_stdout
        assert "grab" in live_stdout

        plain_out = tmp_path / "plain.jsonl"
        profiled_out = tmp_path / "profiled.jsonl"
        for out_path, extra in (
            (plain_out, []),
            (profiled_out, ["--profile"]),
        ):
            code = main(
                ["scan", "--replay", str(corpus), "--out", str(out_path),
                 "--no-store", *extra]
            )
            assert code == 0
        replay_stdout = capsys.readouterr().out
        assert "--- profile: per-stage counters ---" in replay_stdout
        plain = read_snapshots(plain_out)[0]
        profiled = read_snapshots(profiled_out)[0]
        assert snapshot_digest(profiled) == snapshot_digest(plain)

    def test_stale_corpus_replay_fails_cleanly_on_pooled_backend(
        self, tmp_path, monkeypatch, capsys, rsa_1024
    ):
        """A divergent replay inside a worker thread must surface as
        the `repro: replay:` message, not a raw ScanExecutorError."""
        from repro.secure.policies import POLICY_NONE
        from repro.server import EndpointConfig, TcpServerHost
        from repro.transport.capture import read_corpus, write_corpus
        from repro.uabin.enums import MessageSecurityMode, UserTokenType
        from repro.util.rng import DeterministicRng
        from tests.server.helpers import build_server

        monkeypatch.setenv("REPRO_KEYCACHE", str(tmp_path / "keys"))
        server = build_server(
            DeterministicRng(5, "cli-stale"),
            rsa_1024,
            endpoint_configs=[
                EndpointConfig(MessageSecurityMode.NONE, POLICY_NONE)
            ],
            token_types=[UserTokenType.ANONYMOUS],
        )
        corpus_path = tmp_path / "corpus.jsonl.gz"
        with TcpServerHost(server) as (host, port):
            listing = tmp_path / "targets.txt"
            listing.write_text(f"127.0.0.1:{port}\n")
            main(
                ["scan", "--live", "--targets", str(listing),
                 "--contact", "lab@example.org", "--key-bits", "512",
                 "--rate", "1000", "--per-host-interval", "0",
                 "--record", str(corpus_path), "--no-store"]
            )
        capsys.readouterr()
        # Tamper the recorded seed: replay rebuilds a different
        # scanner, whose requests diverge from the recording.
        corpus = read_corpus(corpus_path)
        corpus.meta["seed"] = corpus.meta["seed"] + 1
        write_corpus(corpus_path, corpus)
        with pytest.raises(SystemExit, match="repro: replay:"):
            main(
                ["scan", "--replay", str(corpus_path),
                 "--executor", "thread", "--workers", "2", "--no-store"]
            )

    def test_blocklist_excludes_target(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_KEYCACHE", str(tmp_path / "keys"))
        listing = tmp_path / "targets.txt"
        listing.write_text("127.0.0.1:4840\n")
        blocklist = tmp_path / "blocklist.txt"
        blocklist.write_text("# operator opt-out\n127.0.0.0/8\n")
        code = main(
            [
                "scan",
                "--live",
                "--targets", str(listing),
                "--blocklist", str(blocklist),
                "--contact", "lab@example.org",
                "--key-bits", "512",
            ]
        )
        assert code == 0
        assert "1 blocklisted / 0 tcp open" in capsys.readouterr().out

    def test_max_targets_zero_refuses_everything(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KEYCACHE", str(tmp_path / "keys"))
        listing = tmp_path / "targets.txt"
        listing.write_text("127.0.0.1:4840\n")
        with pytest.raises(SystemExit, match="ethics gate"):
            main(
                [
                    "scan", "--live", "--targets", str(listing),
                    "--contact", "lab@example.org",
                    "--key-bits", "512", "--max-targets", "0",
                ]
            )

    def test_invalid_rate_rejected_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KEYCACHE", str(tmp_path / "keys"))
        listing = tmp_path / "targets.txt"
        listing.write_text("127.0.0.1:4840\n")
        with pytest.raises(SystemExit, match="rate_per_s"):
            main(
                [
                    "scan", "--live", "--targets", str(listing),
                    "--contact", "lab@example.org",
                    "--key-bits", "512", "--rate", "0",
                ]
            )


class TestShardFlags:
    """`repro study --shards N [--shard I] [--resume]` parsing + guards.

    The scan paths themselves are covered by tests/scanner/test_shard*
    against the tiny study; here we pin the flag surface and the error
    messages an operator hits before any scanning starts.
    """

    def test_defaults_are_unsharded(self):
        args = build_parser().parse_args(["study"])
        assert args.shards is None
        assert args.shard is None
        assert not args.resume

    def test_shard_flags_parse(self):
        args = build_parser().parse_args(
            ["study", "--shards", "3", "--shard", "1", "--resume",
             "--store", "/tmp/s"]
        )
        assert (args.shards, args.shard, args.resume) == (3, 1, True)

    def test_shard_requires_shards(self):
        with pytest.raises(SystemExit, match="--shard requires --shards"):
            main(["study", "--shard", "0", "--no-store"])

    def test_resume_requires_shards(self):
        with pytest.raises(SystemExit, match="pass --shards"):
            main(["study", "--resume", "--no-store"])

    def test_shards_must_be_positive(self):
        with pytest.raises(SystemExit, match="--shards must be >= 1"):
            main(["study", "--shards", "0", "--no-store"])

    def test_shard_index_bounds(self, tmp_path):
        with pytest.raises(SystemExit, match=r"--shard must be in \[0, 2\)"):
            main(["study", "--shards", "2", "--shard", "5",
                  "--store", str(tmp_path)])

    def test_single_shard_requires_store(self):
        with pytest.raises(SystemExit, match="checkpoint store"):
            main(["study", "--shards", "2", "--shard", "0", "--no-store"])

    def test_resume_requires_store(self):
        with pytest.raises(SystemExit, match="checkpoint store"):
            main(["study", "--shards", "2", "--resume", "--no-store"])
