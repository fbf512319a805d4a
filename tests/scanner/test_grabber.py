"""Scanner tests against real servers on the simulated network."""

import json
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.client import ClientIdentity
from repro.netsim.net import SimHost, SimNetwork
from repro.scanner.campaign import ScanCampaign, ScannerIdentity, parse_endpoint_url
from repro.scanner.grabber import (
    _attempt_anonymous_session,
    _probe_secure_channel,
    grab_host,
)
from repro.scanner.limits import TraversalBudget
from repro.scanner.records import EndpointRecord, HostRecord
from repro.secure.policies import POLICY_BASIC256SHA256, POLICY_NONE
from repro.server import EndpointConfig, ServerBehavior
from repro.transport.messages import TransportError
from repro.uabin.enums import MessageSecurityMode, UserTokenType
from repro.uabin.registry import encode_body_nodeid
from repro.uabin.types_attribute import ReadResponse
from repro.uabin.types_session import CloseSessionResponse
from repro.util.ipaddr import parse_ipv4
from repro.util.rng import DeterministicRng
from repro.util.simtime import SimClock, parse_utc
from repro.x509.builder import make_self_signed

from tests.server.helpers import build_server, cut_last_byte


class JunkService:
    """A non-OPC UA service squatting on TCP/4840."""

    closed = False

    def receive(self, data: bytes) -> bytes:
        return b"HTTP/1.0 400 Bad Request\r\n\r\n"


class SilentService:
    closed = True

    def receive(self, data: bytes) -> bytes:
        return b""


def flip_last_byte(frame: bytes) -> bytes:
    return frame[:-1] + bytes([frame[-1] ^ 0xFF])


class CorruptedSecureReplies:
    """A server connection whose MSG replies arrive corrupted once a
    secure (non-None policy) channel is open on it."""

    def __init__(self, connection, corrupt):
        self._connection = connection
        self._corrupt = corrupt
        self._secure = False

    @property
    def closed(self):
        return self._connection.closed

    def receive(self, data: bytes) -> bytes:
        reply = self._connection.receive(data)
        if data[:3] == b"OPN":
            self._secure = b"SecurityPolicy#None" not in data
        elif self._secure and reply[:3] == b"MSG":
            reply = self._corrupt(reply)
        return reply


#: A None-policy MSG chunk carries its service body in the clear after
#: the 8-byte header, channel and token ids, sequence number and
#: request id; the body opens with the type id.
_BODY_AT = 24
_READ_RESPONSE_ID = encode_body_nodeid(ReadResponse).to_bytes()
_READ_RESPONSE_AT = _BODY_AT + len(_READ_RESPONSE_ID)


class TamperedReplies:
    """A server connection that passes every reply through ``tamper``."""

    def __init__(self, connection, tamper):
        self._connection = connection
        self._tamper = tamper

    @property
    def closed(self):
        return self._connection.closed

    def receive(self, data: bytes) -> bytes:
        return self._tamper(self._connection.receive(data))


class TamperedReadResponses:
    """A server connection that passes every ReadResponse frame through
    ``tamper`` (None-policy channels only, where the body sits in the
    clear)."""

    def __init__(self, connection, tamper):
        self._connection = connection
        self._tamper = tamper

    @property
    def closed(self):
        return self._connection.closed

    def receive(self, data: bytes) -> bytes:
        reply = self._connection.receive(data)
        if (
            reply[:3] == b"MSG"
            and reply[_BODY_AT:_READ_RESPONSE_AT] == _READ_RESPONSE_ID
        ):
            reply = self._tamper(reply)
        return reply


def xor_byte(offset, mask=0xA5):
    """XOR the byte ``offset`` bytes past the type id with ``mask``."""

    def tamper(frame):
        at = _READ_RESPONSE_AT + offset
        if at >= len(frame):
            return frame
        return frame[:at] + bytes([frame[at] ^ mask]) + frame[at + 1 :]

    return tamper


def nest_diagnostics(depth):
    """Nest the response header's service diagnostics ``depth`` deep
    (each 0x40 mask byte announces one more inner DiagnosticInfo)."""

    def tamper(frame):
        at = _READ_RESPONSE_AT + 16  # past timestamp, handle and result
        body = frame[8:at] + b"\x40" * depth + frame[at:]
        return frame[:4] + struct.pack("<I", 8 + len(body)) + body

    return tamper


def retype(cls):
    """Relabel the reply as a ``cls`` (same type-id length), whose
    fields its body still decodes as."""
    type_id = encode_body_nodeid(cls).to_bytes()
    assert len(type_id) == len(_READ_RESPONSE_ID)

    def tamper(frame):
        return frame[:_BODY_AT] + type_id + frame[_READ_RESPONSE_AT:]

    return tamper


#: Offset of the first byte of the first namespace URI in the grab's
#: ReadResponse: XORed with 0xA5 it is no longer UTF-8.
_NAMESPACE_URI_OFFSET = 38


@pytest.fixture()
def scan_rng():
    return DeterministicRng(31337, "scanner-tests")


@pytest.fixture()
def scanner_identity(scan_rng, rsa_1024):
    certificate = make_self_signed(
        rsa_1024,
        common_name="research-scanner",
        application_uri="urn:repro:scanner",
        not_before=parse_utc("2020-01-01"),
        hash_name="sha256",
        rng=scan_rng.substream("scanner-cert"),
    )
    return ClientIdentity(
        application_uri="urn:repro:scanner",
        application_name="Research Scanner (contact: research@example.org)",
        certificate=certificate,
        private_key=rsa_1024.private,
    )


@pytest.fixture()
def network(scan_rng, rsa_2048):
    net = SimNetwork(SimClock(parse_utc("2020-08-30")))

    def add_server(ip_text, server):
        host = SimHost(address=parse_ipv4(ip_text), asn=64500)
        host.listen(4840, server.new_connection)
        net.add_host(host)
        return host

    add_server("10.0.0.1", build_server(scan_rng.substream("open"), rsa_2048))
    strict = build_server(
        scan_rng.substream("strict"),
        rsa_2048,
        endpoint_configs=[
            EndpointConfig(
                MessageSecurityMode.SIGN_AND_ENCRYPT, POLICY_BASIC256SHA256
            )
        ],
        token_types=[UserTokenType.USERNAME],
        behavior=ServerBehavior(reject_untrusted_client_certs=True),
    )
    add_server("10.0.0.2", strict)

    junk_host = SimHost(address=parse_ipv4("10.0.0.3"), asn=64500)
    junk_host.listen(4840, JunkService)
    net.add_host(junk_host)

    silent_host = SimHost(address=parse_ipv4("10.0.0.4"), asn=64500)
    silent_host.listen(4840, SilentService)
    net.add_host(silent_host)
    return net


class TestGrab:
    def test_open_server_fully_scanned(self, network, scanner_identity, scan_rng):
        record = grab_host(
            network,
            parse_ipv4("10.0.0.1"),
            4840,
            scanner_identity,
            scan_rng,
            budget=TraversalBudget(),
        )
        assert record.tcp_open
        assert record.is_opcua
        assert len(record.endpoints) == 3
        assert record.certificate is not None
        assert record.certificate.key_bits == 2048
        assert record.secure_channel.success
        assert record.session.success
        assert record.nodes is not None
        assert record.nodes.variables >= 3
        assert record.software_version == "3.10.1"
        assert "urn:repro:tests:demo" in record.namespaces

    def test_open_server_rights_counts(self, network, scanner_identity, scan_rng):
        record = grab_host(
            network, parse_ipv4("10.0.0.1"), 4840, scanner_identity, scan_rng
        )
        nodes = record.nodes
        assert nodes.readable_variables >= 2  # inflow + fill level (+ props)
        assert nodes.writable_variables == 1  # rSetFillLevel
        assert nodes.executable_methods == 1  # AddEndpoint
        assert "rSetFillLevel" in nodes.writable_names_sample

    def test_strict_server_secure_channel_rejected(
        self, network, scanner_identity, scan_rng
    ):
        record = grab_host(
            network, parse_ipv4("10.0.0.2"), 4840, scanner_identity, scan_rng
        )
        assert record.is_opcua
        assert record.secure_channel is not None
        assert not record.secure_channel.success
        assert not record.offers_anonymous()
        assert not record.anonymous_accessible()

    def test_junk_service_not_opcua(self, network, scanner_identity, scan_rng):
        record = grab_host(
            network, parse_ipv4("10.0.0.3"), 4840, scanner_identity, scan_rng
        )
        assert record.tcp_open
        assert not record.is_opcua

    def test_silent_service_not_opcua(self, network, scanner_identity, scan_rng):
        record = grab_host(
            network, parse_ipv4("10.0.0.4"), 4840, scanner_identity, scan_rng
        )
        assert record.tcp_open
        assert not record.is_opcua

    def test_no_host(self, network, scanner_identity, scan_rng):
        record = grab_host(
            network, parse_ipv4("10.0.0.99"), 4840, scanner_identity, scan_rng
        )
        assert not record.tcp_open

    def test_record_json_round_trip(self, network, scanner_identity, scan_rng):
        record = grab_host(
            network, parse_ipv4("10.0.0.1"), 4840, scanner_identity, scan_rng
        )
        clone = HostRecord.from_json_dict(record.to_json_dict())
        assert clone == record


class TestCampaign:
    def test_sweep_classifies_all_hosts(
        self, network, scanner_identity, scan_rng
    ):
        campaign = ScanCampaign(
            network,
            ScannerIdentity(scanner_identity),
            scan_rng.substream("campaign"),
        )
        snapshot = campaign.run_sweep(label="2020-08-30")
        assert snapshot.port_open == 4
        assert len(snapshot.reachable()) == 2
        assert snapshot.date == "2020-08-30"

    def test_follow_references_discovers_hidden_host(
        self, network, scanner_identity, scan_rng, rsa_2048
    ):
        # A discovery server announces an endpoint on a non-default port.
        from repro.server import ServerConfig, UaServer
        from repro.uabin.enums import ApplicationType
        from repro.server.endpoints import build_endpoint_descriptions

        hidden = build_server(scan_rng.substream("hidden"), rsa_2048)
        hidden_host = SimHost(address=parse_ipv4("10.0.0.10"), asn=64501)
        hidden_host.listen(4841, hidden.new_connection)
        network.add_host(hidden_host)

        announced = build_endpoint_descriptions(
            endpoint_url="opc.tcp://10.0.0.10:4841/",
            application_uri="urn:repro:tests:hidden",
            product_uri=None,
            application_name="Hidden Server",
            application_type=ApplicationType.SERVER,
            endpoint_configs=hidden.config.endpoint_configs,
            token_types=hidden.config.token_types,
            certificate_der=hidden.config.certificate.raw_der,
        )
        discovery_config = ServerConfig(
            application_uri="urn:repro:tests:lds",
            application_name="Discovery Server",
            endpoint_url="opc.tcp://10.0.0.9:4840/",
            application_type=ApplicationType.DISCOVERY_SERVER,
            announced_endpoints=announced,
        )
        discovery = UaServer(discovery_config, scan_rng.substream("lds"))
        lds_host = SimHost(address=parse_ipv4("10.0.0.9"), asn=64501)
        lds_host.listen(4840, discovery.new_connection)
        network.add_host(lds_host)

        campaign = ScanCampaign(
            network,
            ScannerIdentity(scanner_identity),
            scan_rng.substream("campaign2"),
        )
        without = campaign.run_sweep(label="a", follow_references=False)
        assert not any(r.via_reference for r in without.records)

        with_refs = campaign.run_sweep(label="b", follow_references=True)
        referenced = [r for r in with_refs.records if r.via_reference]
        assert len(referenced) == 1
        assert referenced[0].port == 4841
        assert referenced[0].is_opcua

    def test_blocklist_respected(self, network, scanner_identity, scan_rng):
        from repro.netsim.blocklist import Blocklist

        blocklist = Blocklist()
        blocklist.add("10.0.0.1/32")
        campaign = ScanCampaign(
            network,
            ScannerIdentity(scanner_identity),
            scan_rng.substream("campaign3"),
            blocklist=blocklist,
        )
        snapshot = campaign.run_sweep()
        assert snapshot.excluded == 1
        assert all(r.ip != parse_ipv4("10.0.0.1") for r in snapshot.records)


class TestEndpointUrlParsing:
    @pytest.mark.parametrize(
        "url,expected",
        [
            ("opc.tcp://10.0.0.1:4840/", (parse_ipv4("10.0.0.1"), 4840)),
            ("opc.tcp://10.0.0.1:4841/path", (parse_ipv4("10.0.0.1"), 4841)),
            ("opc.tcp://10.0.0.1/", (parse_ipv4("10.0.0.1"), 4840)),
            ("http://10.0.0.1/", None),
            ("opc.tcp://not-an-ip:4840/", None),
            ("opc.tcp://10.0.0.1:99999/", None),
            (None, None),
            # No port falls back to the IANA-registered 4840; so does a
            # dangling colon (empty port text).
            ("opc.tcp://10.0.0.1", (parse_ipv4("10.0.0.1"), 4840)),
            ("opc.tcp://10.0.0.1:/", (parse_ipv4("10.0.0.1"), 4840)),
            # Port 0 and 65536 are outside the valid TCP range.
            ("opc.tcp://10.0.0.1:0/", None),
            ("opc.tcp://10.0.0.1:65536/", None),
            ("opc.tcp://10.0.0.1:65535/", (parse_ipv4("10.0.0.1"), 65535)),
            ("opc.tcp://10.0.0.1:-1/", None),
            ("opc.tcp://10.0.0.1:4840x/", None),
            # Non-IPv4 hosts (names, IPv6 literals, empties) are skipped:
            # the simulated sweep only targets the IPv4 space.
            ("opc.tcp://server.example.com:4840/", None),
            ("opc.tcp://[2001:db8::1]:4840/", None),
            ("opc.tcp://:4840/", None),
            ("opc.tcp:///path", None),
            ("", None),
            ("opc.tcp://10.0.0.256:4840/", None),
        ],
    )
    def test_parse(self, url, expected):
        assert parse_endpoint_url(url) == expected


class TestErrorTruthfulness:
    """The scanner must not erase or mislabel failure information."""

    def test_session_connect_failure_categorized(
        self, network, scanner_identity, scan_rng
    ):
        """A connection-level session failure records *how* it failed
        instead of an indistinguishable error_status=None."""

        class FailingSessionNetwork:
            """Delegates to the sim, refusing the Nth connect."""

            def __init__(self, inner, fail_on):
                self._inner = inner
                self._fail_on = fail_on
                self._connects = 0
                self.clock = inner.clock

            def host(self, address):
                return self._inner.host(address)

            def connect(self, address, port):
                self._connects += 1
                if self._connects == self._fail_on:
                    from repro.netsim.net import ConnectionRefused

                    raise ConnectionRefused("port closed mid-scan")
                return self._inner.connect(address, port)

        # Connect #1: discovery; #2: secure-channel probe; #3: session.
        wrapped = FailingSessionNetwork(network, fail_on=3)
        record = grab_host(
            wrapped, parse_ipv4("10.0.0.1"), 4840, scanner_identity, scan_rng
        )
        assert record.is_opcua
        assert record.session.attempted
        assert not record.session.success
        assert record.session.error_status is None
        assert record.session.error_category == "refused"

    @pytest.mark.parametrize("reset_on", [1, 2, 3])
    def test_mid_stream_reset_recorded_at_every_step(
        self, network, scanner_identity, scan_rng, reset_on
    ):
        """A live socket reset mid-stream raises ``OSError`` (so does
        its replay); whichever connection it hits, the grab records it
        instead of aborting the sweep."""

        class ResetOnRead:
            def __init__(self, inner):
                self._inner = inner

            @property
            def bytes_sent(self):
                return self._inner.bytes_sent

            def write(self, data):
                self._inner.write(data)

            def read(self):
                raise ConnectionResetError(104, "Connection reset by peer")

            def close(self):
                self._inner.close()

        class ResettingNetwork:
            clock = network.clock
            connects = 0

            def host(self, address):
                return network.host(address)

            def connect(self, address, port):
                self.connects += 1
                socket = network.connect(address, port)
                if self.connects == reset_on:
                    return ResetOnRead(socket)
                return socket

        # Connect #1: discovery; #2: secure channel; #3: session.
        record = grab_host(
            ResettingNetwork(),
            parse_ipv4("10.0.0.1"),
            4840,
            scanner_identity,
            scan_rng,
        )
        if reset_on == 1:
            assert not record.is_opcua
            assert record.error_category == "unreachable"
        elif reset_on == 2:
            assert not record.secure_channel.success
            assert "reset" in record.secure_channel.error_reason
            assert (
                record.session.negotiation_error
                == record.secure_channel.error_reason
            )
        else:
            assert record.secure_channel.success
            assert record.session.error_category == "unreachable"

    def test_silent_host_categorized_as_closed(
        self, network, scanner_identity, scan_rng
    ):
        record = grab_host(
            network, parse_ipv4("10.0.0.4"), 4840, scanner_identity, scan_rng
        )
        assert not record.is_opcua
        assert record.error_category == "closed"

    def test_junk_host_not_given_connection_category(
        self, network, scanner_identity, scan_rng
    ):
        """A host that answered with a non-OPC-UA payload is a protocol
        outcome, already captured in `error` — the connection-level
        category stays unset (and the simulated-lane bytes stable)."""
        record = grab_host(
            network, parse_ipv4("10.0.0.3"), 4840, scanner_identity, scan_rng
        )
        assert not record.is_opcua
        assert record.error.startswith("not OPC UA")
        assert record.error_category is None

    def test_connect_refusal_categorized(self, scanner_identity, scan_rng):
        from repro.netsim.net import SimNetwork
        from repro.util.simtime import SimClock

        empty_port_net = SimNetwork(SimClock(parse_utc("2020-08-30")))
        host = SimHost(address=parse_ipv4("10.9.9.9"), asn=None)
        empty_port_net.add_host(host)  # host up, port closed
        record = grab_host(
            empty_port_net,
            parse_ipv4("10.9.9.9"),
            4840,
            scanner_identity,
            scan_rng,
        )
        assert not record.tcp_open
        assert record.error_category == "refused"

    def test_session_detail_failure_marked_and_session_closed(
        self, network, scanner_identity, scan_rng, monkeypatch
    ):
        """Regression for the silent swallow: a post-activation detail
        failure is recorded on the attempt, and CloseSession still
        goes out so servers are not left holding scanner sessions."""
        import repro.scanner.grabber as grabber_module
        from repro.client import UaClient, UaClientError

        def exploding_details(*args, **kwargs):
            raise UaClientError("namespace read blew up")

        closes = []
        original_close = UaClient.close_session
        monkeypatch.setattr(
            grabber_module, "_collect_session_details", exploding_details
        )
        monkeypatch.setattr(
            UaClient,
            "close_session",
            lambda self: closes.append(True) or original_close(self),
        )
        record = grab_host(
            network, parse_ipv4("10.0.0.1"), 4840, scanner_identity, scan_rng
        )
        assert record.session.success  # access itself worked
        assert record.session.details_error is not None
        assert "namespace read blew up" in record.session.details_error
        # The anonymous attempt opened the grab's only session.
        assert closes == [True]

    def test_failed_channel_close_keeps_negotiation(
        self, network, scanner_identity, scan_rng
    ):
        """Closing the secure channel is best-effort: once its open and
        its protected round trip succeeded, a CloseSecureChannel that
        fails changes neither the probe nor the negotiated pair."""
        closes = []

        class FailingClose:
            """A socket whose CloseSecureChannel chunk never leaves."""

            def __init__(self, inner):
                self._inner = inner

            @property
            def bytes_sent(self):
                return self._inner.bytes_sent

            def write(self, data):
                if data[:3] == b"CLO":
                    closes.append(data)
                    raise TransportError("connection reset on close")
                self._inner.write(data)

            def read(self):
                return self._inner.read()

            def close(self):
                self._inner.close()

        class FailingCloseNetwork:
            clock = network.clock

            def host(self, address):
                return network.host(address)

            def connect(self, address, port):
                return FailingClose(network.connect(address, port))

        address = parse_ipv4("10.0.0.1")
        record = grab_host(
            FailingCloseNetwork(), address, 4840, scanner_identity, scan_rng
        )
        assert len(closes) == 1
        assert record.secure_channel.success
        session = record.session
        assert session.negotiated_policy_uri == POLICY_BASIC256SHA256.uri
        assert session.negotiated_mode == int(
            MessageSecurityMode.SIGN_AND_ENCRYPT
        )
        assert session.negotiation_error is None
        clean = grab_host(network, address, 4840, scanner_identity, scan_rng)
        assert record.secure_channel == clean.secure_channel
        assert record.session == clean.session

    @pytest.mark.parametrize(
        "corrupt", [cut_last_byte, flip_last_byte], ids=["short", "flipped"]
    )
    def test_corrupted_encrypted_reply_recorded_not_raised(
        self, corrupt, scanner_identity, scan_rng, rsa_2048
    ):
        """A SignAndEncrypt reply that fails its security checks is the
        host's protocol fault: the grab records it and returns."""
        server = build_server(
            scan_rng.substream("corrupt"),
            rsa_2048,
            endpoint_configs=[
                EndpointConfig(
                    MessageSecurityMode.SIGN_AND_ENCRYPT, POLICY_BASIC256SHA256
                )
            ],
            token_types=[UserTokenType.ANONYMOUS],
        )
        net = SimNetwork(SimClock(parse_utc("2020-08-30")))
        host = SimHost(address=parse_ipv4("10.0.0.9"), asn=64500)
        host.listen(
            4840,
            lambda: CorruptedSecureReplies(server.new_connection(), corrupt),
        )
        net.add_host(host)
        record = grab_host(
            net, parse_ipv4("10.0.0.9"), 4840, scanner_identity, scan_rng
        )
        assert record.is_opcua
        assert record.secure_channel.success  # the OPN itself is intact
        assert not record.session.success
        assert record.session.error_category == "protocol"
        assert record.session.negotiation_error == "protocol"
        assert record.session.negotiated_policy_uri is None

    def test_sparse_fields_omitted_from_canonical_json(
        self, network, scanner_identity, scan_rng
    ):
        """Unset truthfulness fields must not appear in the canonical
        JSON: the golden digests pin the simulated lane's bytes."""
        record = grab_host(
            network, parse_ipv4("10.0.0.1"), 4840, scanner_identity, scan_rng
        )
        data = record.to_json_dict()
        assert "error_category" not in data
        assert "error_category" not in data["session"]
        assert "details_error" not in data["session"]
        clone = HostRecord.from_json_dict(data)
        assert clone == record

    def test_populated_fields_round_trip(self):
        from repro.scanner.records import SessionAttempt

        record = HostRecord(
            ip=1,
            port=4840,
            asn=None,
            timestamp="2020-08-30T00:00:00",
            error_category="timeout",
            session=SessionAttempt(
                attempted=True,
                error_category="refused",
                details_error="protocol: boom",
            ),
        )
        data = record.to_json_dict()
        assert data["error_category"] == "timeout"
        assert data["session"]["error_category"] == "refused"
        assert HostRecord.from_json_dict(data) == record


class TestImpossibleEndpointPairs:
    """An advertised (policy, mode) pair that no channel can run is
    skipped by the grab steps: it neither aborts the grab nor is
    recorded as a channel opened at that pair."""

    def _record_advertising(self, network, identity, rng, mode, policy):
        record = grab_host(
            network, parse_ipv4("10.0.0.1"), 4840, identity, rng,
            traverse=False,
        )
        record.endpoints = [
            EndpointRecord(
                endpoint_url="opc.tcp://10.0.0.1:4840/",
                security_mode=int(mode),
                security_policy_uri=policy.uri,
                token_types=[int(UserTokenType.ANONYMOUS)],
            )
        ]
        record.secure_channel = None
        return record

    @pytest.mark.parametrize(
        "mode",
        [MessageSecurityMode.NONE, MessageSecurityMode.INVALID],
        ids=["none", "invalid"],
    )
    def test_secure_policy_without_sign_is_not_attempted(
        self, network, scanner_identity, scan_rng, mode
    ):
        record = self._record_advertising(
            network, scanner_identity, scan_rng, mode, POLICY_BASIC256SHA256
        )
        session = _attempt_anonymous_session(
            network, parse_ipv4("10.0.0.1"), 4840, scanner_identity,
            scan_rng, record, TraversalBudget(),
        )
        assert not session.attempted

    @pytest.mark.parametrize(
        "mode",
        [MessageSecurityMode.SIGN, MessageSecurityMode.INVALID],
        ids=["sign", "invalid"],
    )
    def test_none_policy_in_another_mode_is_not_probed(
        self, network, scanner_identity, scan_rng, mode
    ):
        record = self._record_advertising(
            network, scanner_identity, scan_rng, mode, POLICY_NONE
        )
        assert _probe_secure_channel(
            network, parse_ipv4("10.0.0.1"), 4840, scanner_identity,
            scan_rng, record,
        ) == (None, None)


def _none_only_server(rng, keys):
    return build_server(
        rng,
        keys,
        endpoint_configs=[
            EndpointConfig(MessageSecurityMode.NONE, POLICY_NONE)
        ],
    )


def _tampered_network(server, tamper, wrapper=TamperedReadResponses):
    """One host at 10.0.0.9 whose replies ``wrapper`` tampers with
    (by default its ReadResponses)."""
    net = SimNetwork(SimClock(parse_utc("2020-08-30")))
    host = SimHost(address=parse_ipv4("10.0.0.9"), asn=64500)
    host.listen(4840, lambda: wrapper(server.new_connection(), tamper))
    net.add_host(host)
    return net


class TestMalformedReplies:
    """Bytes a peer sends can fail a grab step, never the grab."""

    @pytest.fixture()
    def none_server(self, scan_rng, rsa_1024):
        return _none_only_server(scan_rng.substream("none-only"), rsa_1024)

    @pytest.fixture()
    def secure_server(self, scan_rng, rsa_1024):
        """The default None/Sign/SignAndEncrypt test server."""
        return build_server(scan_rng.substream("secure"), rsa_1024)

    def test_garbled_read_response_recorded_as_protocol(
        self, none_server, scanner_identity, scan_rng
    ):
        net = _tampered_network(
            none_server, xor_byte(_NAMESPACE_URI_OFFSET)
        )
        record = grab_host(
            net, parse_ipv4("10.0.0.9"), 4840, scanner_identity, scan_rng
        )
        assert record.session.success
        assert record.session.details_error.startswith("protocol:")
        assert "'utf-8' codec" in record.session.details_error
        assert record.namespaces == []

    def test_reply_of_another_service_recorded_as_protocol(
        self, none_server, scanner_identity, scan_rng
    ):
        """A ReadResponse relabelled CloseSessionResponse decodes (its
        body starts with a response header) but answers the wrong
        service."""
        net = _tampered_network(none_server, retype(CloseSessionResponse))
        record = grab_host(
            net, parse_ipv4("10.0.0.9"), 4840, scanner_identity, scan_rng
        )
        assert record.session.details_error == (
            "protocol: expected ReadResponse, got CloseSessionResponse"
        )

    def test_deeply_nested_diagnostics_recorded_as_protocol(
        self, none_server, scanner_identity, scan_rng
    ):
        """Nesting deep enough to exhaust the recursion limit is one
        more malformed reply, not a crash."""
        net = _tampered_network(none_server, nest_diagnostics(5000))
        record = grab_host(
            net, parse_ipv4("10.0.0.9"), 4840, scanner_identity, scan_rng
        )
        assert record.session.success
        assert record.session.details_error.startswith("protocol:")

    # The fixtures are only read across examples: each one is a fresh
    # network and grab against the same server.
    @settings(
        derandomize=True,
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(offset=st.integers(0, 199), mask=st.integers(1, 255))
    def test_any_garbled_read_response_yields_a_record(
        self, none_server, scanner_identity, scan_rng, offset, mask
    ):
        net = _tampered_network(none_server, xor_byte(offset, mask))
        record = grab_host(
            net, parse_ipv4("10.0.0.9"), 4840, scanner_identity, scan_rng
        )
        assert record.session.success
        details_error = record.session.details_error
        assert details_error is None or details_error.startswith(
            "protocol:"
        )

    # Every reply of a secure-capable server: the discovery channel,
    # the Sign/SignAndEncrypt channel and the session with its reads.
    # The fixtures are only read across examples, as above.
    @settings(
        derandomize=True,
        max_examples=250,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        index=st.integers(0, 12),
        offset=st.integers(0, 4095),
        mask=st.integers(1, 255),
    )
    def test_any_garbled_reply_of_a_secure_server_yields_a_record(
        self,
        secure_server,
        scanner_identity,
        scan_rng,
        index,
        offset,
        mask,
    ):
        replies = 0

        def garble_one(reply: bytes) -> bytes:
            nonlocal replies
            if reply and replies == index:
                at = offset % len(reply)
                reply = (
                    reply[:at] + bytes([reply[at] ^ mask]) + reply[at + 1 :]
                )
            replies += bool(reply)
            return reply

        net = _tampered_network(secure_server, garble_one, TamperedReplies)
        record = grab_host(
            net, parse_ipv4("10.0.0.9"), 4840, scanner_identity, scan_rng
        )
        assert isinstance(record, HostRecord)

    def test_garbled_host_leaves_the_sweep_and_other_records_intact(
        self, scanner_identity, scan_rng, rsa_1024
    ):
        addresses = [parse_ipv4(f"10.0.0.{i}") for i in (1, 2, 3)]
        garbled = addresses[1]

        def sweep(garble):
            net = SimNetwork(SimClock(parse_utc("2020-08-30")))
            for address in addresses:
                server = _none_only_server(
                    scan_rng.substream(f"server-{address}"), rsa_1024
                )
                host = SimHost(address=address, asn=64500)
                if garble and address == garbled:
                    host.listen(
                        4840,
                        lambda server=server: TamperedReadResponses(
                            server.new_connection(),
                            xor_byte(_NAMESPACE_URI_OFFSET),
                        ),
                    )
                else:
                    host.listen(4840, server.new_connection)
                net.add_host(host)
            campaign = ScanCampaign(
                net,
                ScannerIdentity(scanner_identity),
                scan_rng.substream("three-hosts"),
            )
            snapshot = campaign.run_sweep(label="2020-08-30")
            return {
                record.ip: json.dumps(record.to_json_dict(), sort_keys=True)
                for record in snapshot.records
            }

        clean, with_garbled = sweep(False), sweep(True)
        assert sorted(with_garbled) == sorted(clean) == sorted(addresses)
        assert '"details_error": "protocol:' in with_garbled[garbled]
        for address in addresses:
            if address != garbled:
                assert with_garbled[address] == clean[address]
