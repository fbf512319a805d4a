"""Live-lane loopback tests: the in-repo engine behind a real socket.

The central assertion: one live grab through the thread executor
produces the same record a simulated grab of the same deployment
profile produces — the transport lane changes how bytes move, never
what the scanner records.
"""

from __future__ import annotations

import pytest

from repro.client import ClientIdentity
from repro.netsim.blocklist import Blocklist
from repro.netsim.net import SimHost, SimNetwork
from repro.scanner.campaign import (
    LiveScanCampaign,
    LiveScanConfig,
    ScannerIdentity,
    load_targets,
    parse_target_line,
)
from repro.scanner.ethics import EthicsViolation, LiveScanGate
from repro.scanner.executor import ThreadScanExecutor
from repro.scanner.grabber import grab_host
from repro.scanner.limits import ScanRateLimiter, TraversalBudget
from repro.server import TcpServerHost
from repro.util.ipaddr import parse_ipv4
from repro.util.rng import DeterministicRng
from repro.util.simtime import SimClock, parse_utc
from repro.x509.builder import make_self_signed

from tests.server.helpers import build_server

LOOPBACK = parse_ipv4("127.0.0.1")

#: Keys volatile across lanes: address/port differ by construction,
#: timing and byte counts depend on the wire.
_VOLATILE = ("ip", "port", "timestamp", "scan_duration_s", "scan_bytes")


def _free_port() -> int:
    """A loopback port with nothing listening on it."""
    import socket as socketlib

    probe = socketlib.socket()
    try:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


def _fast_limiter() -> ScanRateLimiter:
    return ScanRateLimiter(
        rate_per_s=10_000, per_host_interval_s=0.0
    )


def _identity(rng, keys) -> ScannerIdentity:
    certificate = make_self_signed(
        keys,
        common_name="research-scanner",
        application_uri="urn:repro:tests:live-scanner",
        not_before=parse_utc("2020-01-01"),
        hash_name="sha256",
        rng=rng.substream("scanner-cert"),
    )
    return ScannerIdentity(
        ClientIdentity(
            application_uri="urn:repro:tests:live-scanner",
            application_name=(
                "Research Scanner (contact: research@example.org)"
            ),
            certificate=certificate,
            private_key=keys.private,
        )
    )


def _normalized(record) -> dict:
    data = record.to_json_dict()
    for key in _VOLATILE:
        data.pop(key, None)
    return data


@pytest.fixture()
def live_rng():
    return DeterministicRng(424242, "live-scan-tests")


@pytest.fixture()
def scanner(live_rng, rsa_1024):
    return _identity(live_rng, rsa_1024)


class TestLiveMatchesSimulated:
    def test_loopback_grab_equals_simulated_grab(
        self, live_rng, scanner, rsa_1024
    ):
        """One deployment profile, two lanes, one record."""
        # Two engine instances built from identical RNG streams: the
        # live lane must not share runtime state (sessions, nonces)
        # with the reference, or the comparison would be vacuous.
        live_server = build_server(
            DeterministicRng(99, "live-profile"), rsa_1024
        )
        sim_server = build_server(
            DeterministicRng(99, "live-profile"), rsa_1024
        )
        budget = TraversalBudget(inter_request_delay_s=0.0)

        with TcpServerHost(live_server) as (host, port):
            campaign = LiveScanCampaign(
                scanner,
                live_rng.substream("campaign"),
                config=LiveScanConfig(workers=4, traverse=True),
                limiter=_fast_limiter(),
                budget=budget,
                executor=ThreadScanExecutor(4),
            )
            snapshot = campaign.run([(LOOPBACK, port)])

        assert snapshot.probed == 1
        assert snapshot.port_open == 1
        assert len(snapshot.records) == 1
        live_record = snapshot.records[0]
        assert live_record.ip == LOOPBACK
        assert live_record.port == port

        network = SimNetwork(SimClock(parse_utc("2020-08-30")))
        sim_address = parse_ipv4("10.0.0.1")
        sim_host = SimHost(address=sim_address, asn=None)
        sim_host.listen(4840, sim_server.new_connection)
        network.add_host(sim_host)
        sim_record = grab_host(
            network,
            sim_address,
            4840,
            scanner.client_identity,
            live_rng.substream("campaign"),
            budget=TraversalBudget(inter_request_delay_s=0.0),
            traverse=True,
        )

        assert live_record.is_opcua and sim_record.is_opcua
        assert live_record.session.success
        assert _normalized(live_record) == _normalized(sim_record)

    def test_loopback_negotiates_sign_and_encrypt(
        self, live_rng, scanner, rsa_1024
    ):
        """Acceptance: a live grab completes a SignAndEncrypt
        (Basic256Sha256) secure channel against a real socket, and the
        record's negotiated_* fields match the simulated lane
        byte-for-byte."""
        live_server = build_server(
            DeterministicRng(77, "negotiate-profile"), rsa_1024
        )
        sim_server = build_server(
            DeterministicRng(77, "negotiate-profile"), rsa_1024
        )

        with TcpServerHost(live_server) as (host, port):
            campaign = LiveScanCampaign(
                scanner,
                live_rng.substream("negotiate"),
                config=LiveScanConfig(workers=2, traverse=False),
                limiter=_fast_limiter(),
                executor=ThreadScanExecutor(2),
            )
            snapshot = campaign.run([(LOOPBACK, port)])
        live_record = snapshot.records[0]

        network = SimNetwork(SimClock(parse_utc("2020-08-30")))
        sim_address = parse_ipv4("10.0.0.1")
        sim_host = SimHost(address=sim_address, asn=None)
        sim_host.listen(4840, sim_server.new_connection)
        network.add_host(sim_host)
        sim_record = grab_host(
            network,
            sim_address,
            4840,
            scanner.client_identity,
            live_rng.substream("negotiate"),
            traverse=False,
        )

        for record in (live_record, sim_record):
            session = record.session
            assert session.negotiation_error is None
            assert session.negotiated_policy_uri is not None
            assert session.negotiated_policy_uri.endswith("#Basic256Sha256")
            assert session.negotiated_mode == 3  # SignAndEncrypt
        assert (
            live_record.session.negotiated_policy_uri
            == sim_record.session.negotiated_policy_uri
        )
        assert (
            live_record.session.negotiated_mode
            == sim_record.session.negotiated_mode
        )
        assert _normalized(live_record) == _normalized(sim_record)

    def test_closed_port_recorded_truthfully(self, live_rng, scanner):
        """A refused connection is a 'refused' record, not a crash
        and not a bare unexplained failure."""
        port = _free_port()
        campaign = LiveScanCampaign(
            scanner,
            live_rng.substream("refused"),
            config=LiveScanConfig(workers=2, connect_timeout_s=2.0),
            limiter=_fast_limiter(),
        )
        snapshot = campaign.run([(LOOPBACK, port)])
        record = snapshot.records[0]
        assert not record.tcp_open
        assert record.error
        assert record.error_category in ("refused", "unreachable")


class TestLiveGates:
    def test_blocklisted_target_never_contacted(self, live_rng, scanner):
        blocklist = Blocklist()
        blocklist.add("127.0.0.0/8")
        gate = LiveScanGate(blocklist=blocklist)
        campaign = LiveScanCampaign(
            scanner,
            live_rng.substream("blocked"),
            gate=gate,
            limiter=_fast_limiter(),
        )
        snapshot = campaign.run([(LOOPBACK, 4840)])
        # Simulated-sweep accounting: probed counts only targets
        # actually contacted.
        assert snapshot.probed == 0
        assert snapshot.excluded == 1
        assert snapshot.records == []

    def test_grab_time_gate_is_defence_in_depth(self, live_rng, scanner):
        campaign = LiveScanCampaign(
            scanner, live_rng.substream("deep"), limiter=_fast_limiter()
        )
        # Reaching _grab_sync with a blocklisted address (a list-
        # assembly bug, by construction) must still refuse to connect.
        blocklist = Blocklist()
        blocklist.add("127.0.0.0/8")
        campaign._gate = LiveScanGate(blocklist=blocklist)
        from repro.scanner.executor import GrabTask

        with pytest.raises(EthicsViolation):
            campaign._grab_sync(GrabTask(LOOPBACK, 4840))

    def test_contactless_identity_refused(self, live_rng, rsa_1024):
        anonymous = ScannerIdentity(
            ClientIdentity(
                application_uri="urn:repro:tests:anonymous",
                application_name="scanner",  # no contact anywhere
                certificate=_identity(live_rng, rsa_1024)
                .client_identity.certificate,
                private_key=rsa_1024.private,
            )
        )
        with pytest.raises(EthicsViolation):
            LiveScanCampaign(
                anonymous, live_rng.substream("anon")
            )

    def test_oversized_target_list_refused(self, live_rng, scanner):
        campaign = LiveScanCampaign(
            scanner,
            live_rng.substream("big"),
            gate=LiveScanGate(max_targets=2),
            limiter=_fast_limiter(),
        )
        targets = [(LOOPBACK, 4840 + i) for i in range(3)]
        with pytest.raises(EthicsViolation):
            campaign.run(targets)

    def test_rate_limiter_paces_every_connection(
        self, live_rng, scanner, rsa_1024
    ):
        """One grab of an OPC UA host opens three connections
        (discovery, secure channel, session) — each one must pass the
        rate limiter, not just the first."""
        waits = []

        class _Spy(ScanRateLimiter):
            def acquire(self, host_key):
                waits.append(host_key)
                return 0.0

        server = build_server(
            DeterministicRng(96, "paced"), rsa_1024
        )
        with TcpServerHost(server) as (host, port):
            campaign = LiveScanCampaign(
                scanner,
                live_rng.substream("paced"),
                config=LiveScanConfig(workers=2),
                limiter=_Spy(rate_per_s=10_000, per_host_interval_s=0),
            )
            snapshot = campaign.run([(LOOPBACK, port)])
        assert snapshot.records[0].is_opcua
        assert waits == [LOOPBACK] * 3

    def test_rate_limiter_paces_refused_connects_too(
        self, live_rng, scanner
    ):
        waits = []

        class _Spy(ScanRateLimiter):
            def acquire(self, host_key):
                waits.append(host_key)
                return 0.0

        campaign = LiveScanCampaign(
            scanner,
            live_rng.substream("paced-refused"),
            config=LiveScanConfig(workers=2, connect_timeout_s=2.0),
            limiter=_Spy(),
        )
        campaign.run([(LOOPBACK, _free_port())])
        assert waits == [LOOPBACK]


class TestTargetParsing:
    def test_parse_lines(self):
        assert parse_target_line("10.0.0.1") == (parse_ipv4("10.0.0.1"), 4840)
        assert parse_target_line("10.0.0.1:4841 # lab PLC") == (
            parse_ipv4("10.0.0.1"),
            4841,
        )
        assert parse_target_line("   ") is None
        assert parse_target_line("# comment only") is None

    def test_hostnames_rejected(self):
        with pytest.raises(ValueError, match="IPv4 literal"):
            parse_target_line("plc.lab.example")

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            parse_target_line("10.0.0.1:0")
        with pytest.raises(ValueError):
            parse_target_line("10.0.0.1:notaport")

    def test_load_targets_dedupes_and_reports_line(self, tmp_path):
        listing = tmp_path / "targets.txt"
        listing.write_text(
            "# lab switch closet\n"
            "10.0.0.1\n"
            "10.0.0.1:4840\n"
            "10.0.0.2:4841\n"
        )
        assert load_targets(listing) == [
            (parse_ipv4("10.0.0.1"), 4840),
            (parse_ipv4("10.0.0.2"), 4841),
        ]
        listing.write_text("10.0.0.1\nnot-an-ip\n")
        with pytest.raises(ValueError, match=":2:"):
            load_targets(listing)
