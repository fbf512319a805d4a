"""Scanner tests against real servers on the simulated network."""

import pytest

from repro.client import ClientIdentity
from repro.netsim.net import SimHost, SimNetwork
from repro.scanner.campaign import ScanCampaign, ScannerIdentity, parse_endpoint_url
from repro.scanner.grabber import grab_host
from repro.scanner.limits import TraversalBudget
from repro.scanner.records import HostRecord
from repro.secure.policies import POLICY_BASIC256SHA256
from repro.server import EndpointConfig, ServerBehavior
from repro.uabin.enums import MessageSecurityMode, UserTokenType
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
        # Two sessions were opened (anonymous attempt + negotiated
        # re-grab) and both must be closed.
        assert closes == [True, True]

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
