"""Capture/replay unit tests: the seam, the corpus format, the edges.

The loopback (real-socket) round trip lives in
``tests/scanner/test_replay_scan.py``; this module covers the lane in
isolation — a simulated grab captured and replayed byte-identically,
strictness on divergence, and every malformed-corpus shape the reader
promises to reject.
"""

from __future__ import annotations

import json

import pytest

from repro.client import ClientIdentity
from repro.netsim.net import SimHost, SimNetwork
from repro.scanner.grabber import grab_host
from repro.scanner.limits import TraversalBudget
from repro.transport.capture import (
    CaptureCorpus,
    CaptureFormatError,
    CaptureNetwork,
    CaptureRecorder,
    CaptureTransport,
    TargetCapture,
    read_corpus,
    write_corpus,
)
from repro.transport.messages import TransportTimeout
from repro.transport.replay import (
    ReplayMismatch,
    ReplayNetwork,
    ReplayTransport,
)
from repro.util.ipaddr import parse_ipv4
from repro.util.rng import DeterministicRng
from repro.util.simtime import SimClock, parse_utc
from repro.x509.builder import make_self_signed

from tests.server.helpers import build_server

ADDRESS = parse_ipv4("10.0.0.1")


def _scanner(rng, keys) -> ClientIdentity:
    certificate = make_self_signed(
        keys,
        common_name="capture-scanner",
        application_uri="urn:repro:tests:capture",
        not_before=parse_utc("2020-01-01"),
        hash_name="sha256",
        rng=rng.substream("cert"),
    )
    return ClientIdentity(
        application_uri="urn:repro:tests:capture",
        application_name="Capture Tests",
        certificate=certificate,
        private_key=keys.private,
    )


def _sim_network(server, asn=3320) -> SimNetwork:
    network = SimNetwork(SimClock(parse_utc("2020-08-30")))
    host = SimHost(address=ADDRESS, asn=asn)
    host.listen(4840, server.new_connection)
    network.add_host(host)
    return network


@pytest.fixture()
def capture_rng():
    return DeterministicRng(424242, "capture-tests")


@pytest.fixture()
def sim_capture(capture_rng, rsa_512):
    """One simulated grab, captured: returns (capture, live record)."""
    server = build_server(DeterministicRng(99, "profile"), rsa_512)
    network = _sim_network(server)
    identity = _scanner(capture_rng, rsa_512)
    capture = TargetCapture(address=ADDRESS, port=4840)
    wrapped = CaptureNetwork(network.task_view(), capture.events)
    record = grab_host(
        wrapped,
        ADDRESS,
        4840,
        identity,
        capture_rng.substream("grab"),
        budget=TraversalBudget(inter_request_delay_s=0.0),
        traverse=True,
    )
    return capture, record, identity


class TestSimRoundTrip:
    def test_replayed_record_is_byte_identical(
        self, sim_capture, capture_rng
    ):
        capture, live, identity = sim_capture
        assert live.is_opcua and live.session.success
        replayed = grab_host(
            ReplayNetwork(capture),
            ADDRESS,
            4840,
            identity,
            capture_rng.substream("grab"),
            budget=TraversalBudget(inter_request_delay_s=0.0),
            traverse=True,
        )
        assert replayed.to_json_dict() == live.to_json_dict()

    def test_replay_preserves_asn_and_timing(
        self, sim_capture, capture_rng
    ):
        capture, live, identity = sim_capture
        replayed = grab_host(
            ReplayNetwork(capture),
            ADDRESS,
            4840,
            identity,
            capture_rng.substream("grab"),
            budget=TraversalBudget(inter_request_delay_s=0.0),
            traverse=True,
        )
        assert replayed.asn == live.asn == 3320
        assert replayed.timestamp == live.timestamp
        assert replayed.scan_duration_s == live.scan_duration_s
        assert replayed.scan_bytes == live.scan_bytes

    def test_divergent_identity_raises_mismatch(
        self, sim_capture, capture_rng, rsa_768
    ):
        """A different scanner writes different bytes — strict replay
        must refuse loudly, not fabricate a stale record."""
        capture, _, _ = sim_capture
        other = _scanner(capture_rng.substream("other"), rsa_768)
        with pytest.raises(ReplayMismatch, match="diverge"):
            grab_host(
                ReplayNetwork(capture),
                ADDRESS,
                4840,
                other,
                capture_rng.substream("grab"),
                budget=TraversalBudget(inter_request_delay_s=0.0),
                traverse=True,
            )

    def test_replay_past_stream_end_raises(self, sim_capture):
        capture, _, _ = sim_capture
        transport = ReplayTransport(
            [], connection=0, target_key=(ADDRESS, 4840)
        )
        with pytest.raises(ReplayMismatch, match="stream ended"):
            transport.read()

    def test_underconsumption_detected(self, sim_capture, capture_rng):
        """A driver doing *fewer* operations than the recording must
        not pass as a faithful replay (the strict-exhaustion check)."""
        capture, _, identity = sim_capture
        network = ReplayNetwork(capture)
        # Consume only the start of the grab, then stop.
        network.host(ADDRESS)
        network.clock.now()
        with pytest.raises(ReplayMismatch, match="left unconsumed"):
            network.assert_exhausted()


class TestReplayedErrors:
    def test_connect_error_replays_category_and_message(self):
        capture = TargetCapture(address=ADDRESS, port=4840)
        capture.events = [
            {"event": "host", "asn": None, "known": False},
            {"event": "now", "time": "2020-08-30T00:00:00+00:00"},
            {"event": "now", "time": "2020-08-30T00:00:00+00:00"},
            {
                "event": "connect-error",
                "category": "timeout",
                "message": "connect to 10.0.0.1:4840 timed out",
            },
        ]
        network = ReplayNetwork(capture)
        assert network.host(ADDRESS) is None
        network.clock.now(), network.clock.now()
        with pytest.raises(Exception) as excinfo:
            network.connect(ADDRESS, 4840)
        assert excinfo.value.category == "timeout"
        assert "timed out" in str(excinfo.value)

    def test_io_timeout_replays_as_transport_timeout(self):
        events = [
            {
                "event": "io-error",
                "connection": 0,
                "op": "read",
                "category": "timeout",
                "message": "no data within 5s",
            },
        ]
        transport = ReplayTransport(events, connection=0)
        with pytest.raises(TransportTimeout, match="no data within"):
            transport.read()

    def test_failed_write_replays_recorded_byte_delta(self):
        """scan_bytes copies bytes_sent even on failed grabs, and the
        lanes differ in whether a failing write counted its payload
        (live drain stall: yes; deadline check / simulator refusal:
        no) — so capture records the observed delta and replay applies
        exactly that."""
        def failing_transport(counted):
            return ReplayTransport(
                [
                    {
                        "event": "io-error",
                        "connection": 0,
                        "op": "write",
                        "category": "timeout",
                        "message": "write stalled for 5s",
                        "counted": counted,
                    },
                ],
                connection=0,
            )

        stalled = failing_transport(100)  # drain stall: counted live
        with pytest.raises(TransportTimeout):
            stalled.write(b"x" * 100)
        assert stalled.bytes_sent == 100

        deadline = failing_transport(0)  # deadline check: never sent
        with pytest.raises(TransportTimeout):
            deadline.write(b"x" * 100)
        assert deadline.bytes_sent == 0

    def test_capture_records_write_error_delta(self):
        """The capture side measures the inner counter, not the
        payload size."""
        class _DeadlineExhausted:
            bytes_sent = bytes_received = 0

            def write(self, data):
                raise TransportTimeout("connection deadline exhausted")

        events = []
        transport = CaptureTransport(_DeadlineExhausted(), events, 0)
        with pytest.raises(TransportTimeout):
            transport.write(b"x" * 64)
        assert events[-1]["event"] == "io-error"
        assert events[-1]["counted"] == 0

        class _StalledDrain:
            bytes_sent = bytes_received = 0

            def write(self, data):
                self.bytes_sent += len(data)  # counted, then stalled
                raise TransportTimeout("write stalled for 5s")

        events = []
        transport = CaptureTransport(_StalledDrain(), events, 0)
        with pytest.raises(TransportTimeout):
            transport.write(b"x" * 64)
        assert events[-1]["counted"] == 64


class TestCorpusFormat:
    def _corpus(self, sim_capture) -> CaptureCorpus:
        capture, _, _ = sim_capture
        return CaptureCorpus(
            meta={"label": "2020-08-30", "probed": 1, "excluded": 0},
            targets=[capture],
        )

    @pytest.mark.parametrize("name", ["corpus.jsonl", "corpus.jsonl.gz"])
    def test_round_trip_plain_and_gzip(self, sim_capture, tmp_path, name):
        corpus = self._corpus(sim_capture)
        path = tmp_path / name
        write_corpus(path, corpus)
        reread = read_corpus(path)
        assert reread.meta == corpus.meta
        assert [t.events for t in reread.targets] == [
            t.events for t in corpus.targets
        ]
        assert reread.digest() == corpus.digest()

    def test_gzip_bytes_are_reproducible(self, sim_capture, tmp_path):
        """Same content → same compressed bytes (content-addressing
        depends on it; filename=''/mtime=0 like dataset/io.py)."""
        corpus = self._corpus(sim_capture)
        first, second = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        write_corpus(first, corpus)
        write_corpus(second, corpus)
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_corpus_rejected(self, sim_capture, tmp_path):
        corpus = self._corpus(sim_capture)
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, corpus)
        lines = path.read_text().splitlines()
        (tmp_path / "cut.jsonl").write_text(
            "\n".join(lines[: len(lines) // 2]) + "\n"
        )
        with pytest.raises(CaptureFormatError, match="truncated"):
            read_corpus(tmp_path / "cut.jsonl")

    def test_truncated_target_table_rejected(self, sim_capture, tmp_path):
        """Whole targets missing from the tail must be caught too."""
        corpus = self._corpus(sim_capture)
        corpus.meta = {}
        extra = TargetCapture(address=ADDRESS + 1, port=4840)
        extra.events = [{"event": "host", "asn": None, "known": False}]
        corpus.targets.append(extra)
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, corpus)
        lines = path.read_text().splitlines()
        # Drop the second target's header+event entirely.
        (tmp_path / "cut.jsonl").write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(CaptureFormatError, match="declared 2 targets"):
            read_corpus(tmp_path / "cut.jsonl")

    def test_corrupted_gzip_frame_rejected(self, sim_capture, tmp_path):
        corpus = self._corpus(sim_capture)
        path = tmp_path / "corpus.jsonl.gz"
        write_corpus(path, corpus)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one bit mid-stream
        (tmp_path / "bad.jsonl.gz").write_bytes(bytes(blob))
        with pytest.raises(CaptureFormatError):
            read_corpus(tmp_path / "bad.jsonl.gz")

    def test_garbage_json_line_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"capture_corpus": 1, "meta": {}, "targets": 0})
            + "\n{not json\n"
        )
        with pytest.raises(CaptureFormatError, match="not valid JSON"):
            read_corpus(path)

    def test_scalar_json_line_rejected(self, tmp_path):
        """A bare number parses as JSON but is not an event object."""
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"capture_corpus": 1, "meta": {}, "targets": 0})
            + "\n5\n"
        )
        with pytest.raises(CaptureFormatError, match="JSON object"):
            read_corpus(path)

    def test_event_before_target_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"capture_corpus": 1, "meta": {}, "targets": 1})
            + "\n"
            + json.dumps({"event": "now", "time": "2020-01-01T00:00:00"})
            + "\n"
        )
        with pytest.raises(CaptureFormatError, match="before any"):
            read_corpus(path)

    def test_duplicate_target_headers_rejected(self, tmp_path):
        """Two event streams for one (address, port) cannot both
        replay; refuse the corpus instead of silently dropping one."""
        header = json.dumps(
            {"target": {"address": 1, "port": 4840, "events": 0}}
        )
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"capture_corpus": 1, "meta": {}, "targets": 2})
            + "\n" + header + "\n" + header + "\n"
        )
        with pytest.raises(CaptureFormatError, match="duplicate target"):
            read_corpus(path)

    def test_target_header_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"capture_corpus": 1, "meta": {}, "targets": 1})
            + "\n"
            + json.dumps({"target": {"events": 2}})
            + "\n"
        )
        with pytest.raises(CaptureFormatError, match="address/port"):
            read_corpus(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"capture_corpus": 999, "targets": 0}) + "\n"
        )
        with pytest.raises(CaptureFormatError, match="schema"):
            read_corpus(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        with pytest.raises(CaptureFormatError, match="empty"):
            read_corpus(path)

    def test_excess_events_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"capture_corpus": 1, "meta": {}, "targets": 1})
            + "\n"
            + json.dumps(
                {"target": {"address": 1, "port": 4840, "events": 0}}
            )
            + "\n"
            + json.dumps({"event": "close", "connection": 0})
            + "\n"
        )
        with pytest.raises(CaptureFormatError, match="more event lines"):
            read_corpus(path)


class TestRecorder:
    def test_duplicate_target_refused(self):
        recorder = CaptureRecorder()

        class _Net:
            clock = SimClock(parse_utc("2020-01-01"))

        recorder.wrap(_Net(), ADDRESS, 4840)
        with pytest.raises(ValueError, match="captured twice"):
            recorder.wrap(_Net(), ADDRESS, 4840)

    def test_corpus_targets_in_canonical_order(self):
        recorder = CaptureRecorder({"seed": 1})

        class _Net:
            clock = SimClock(parse_utc("2020-01-01"))

        for address, port in [(9, 4841), (2, 4840), (9, 4840)]:
            recorder.wrap(_Net(), address, port)
        corpus = recorder.corpus()
        assert [t.key for t in corpus.targets] == [
            (2, 4840),
            (9, 4840),
            (9, 4841),
        ]
