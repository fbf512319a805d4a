"""End-to-end client ↔ server tests over the loopback stream."""

import struct

import pytest

from repro.client import (
    ServiceFaultError,
    TransportRejectedError,
    UaClient,
    UaClientError,
)
from repro.secure.policies import (
    ALL_POLICIES,
    POLICY_BASIC128RSA15,
    POLICY_BASIC256SHA256,
    POLICY_NONE,
)
from repro.server import EndpointConfig, ServerBehavior
from repro.server.addressspace import NodeIds
from repro.transport.connection import encode_frame
from repro.transport.messages import MessageType
from repro.uabin.enums import (
    AttributeId,
    MessageSecurityMode,
    UserTokenType,
)
from repro.uabin.nodeid import NodeId
from repro.uabin.statuscodes import StatusCodes
from repro.util.rng import DeterministicRng

from tests.server.helpers import (
    LoopbackStream,
    build_client,
    build_server,
    secure_open,
)

DEMO_NS = 1  # first registered namespace in the demo address space


@pytest.fixture()
def irng():
    return DeterministicRng(2020, "integration")


@pytest.fixture()
def server(irng, rsa_2048):
    return build_server(irng, rsa_2048)


@pytest.fixture()
def client(server, irng, rsa_1024):
    return build_client(server, irng, rsa_1024)


class TestTransportHandshake:
    def test_hello_ack(self, client):
        ack = client.hello()
        assert ack.protocol_version == 0

    def test_message_before_hello_rejected(self, server, irng, rsa_1024):
        client = build_client(server, irng.substream("x"), rsa_1024)
        client.connected = True  # skip hello on purpose
        with pytest.raises(Exception):
            client.open_secure_channel()


class TestGetEndpoints:
    def test_lists_configured_endpoints(self, client):
        client.hello()
        client.open_secure_channel()
        endpoints = client.get_endpoints()
        pairs = {(e.security_mode, e.security_policy_uri) for e in endpoints}
        assert len(pairs) == 3
        assert any(uri.endswith("#None") for _, uri in pairs)
        assert any(uri.endswith("#Basic256Sha256") for _, uri in pairs)

    def test_endpoints_carry_certificate(self, client):
        client.hello()
        client.open_secure_channel()
        endpoints = client.get_endpoints()
        assert all(e.server_certificate for e in endpoints)

    def test_endpoints_carry_token_types(self, client):
        client.hello()
        client.open_secure_channel()
        endpoints = client.get_endpoints()
        token_types = endpoints[0].token_types()
        assert UserTokenType.ANONYMOUS in token_types
        assert UserTokenType.USERNAME in token_types


class TestSecureChannels:
    @pytest.mark.parametrize(
        "policy",
        [p for p in ALL_POLICIES if p.provides_security],
        ids=lambda p: p.short_label,
    )
    def test_secure_channel_for_each_policy(self, irng, rsa_2048, rsa_1024, policy):
        configs = [
            EndpointConfig(MessageSecurityMode.NONE, POLICY_NONE),
            EndpointConfig(MessageSecurityMode.SIGN_AND_ENCRYPT, policy),
        ]
        server = build_server(
            irng.substream(policy.short_label), rsa_2048, endpoint_configs=configs
        )
        client = build_client(server, irng.substream("c" + policy.short_label), rsa_1024)
        client.hello()
        client.open_secure_channel()
        endpoints = client.get_endpoints()
        secure = next(
            e for e in endpoints if e.security_policy_uri == policy.uri
        )
        # Re-connect on a fresh secure channel.
        client2 = build_client(server, irng.substream("c2" + policy.short_label), rsa_1024)
        client2.hello()
        secure_open(
            client2,
            policy,
            MessageSecurityMode.SIGN_AND_ENCRYPT,
            secure.server_certificate,
        )
        assert client2.get_endpoints()

    def test_unoffered_policy_rejected(self, server, client):
        client.hello()
        cert_der = server.config.certificate.raw_der
        with pytest.raises(TransportRejectedError) as excinfo:
            secure_open(
                client, POLICY_BASIC128RSA15, MessageSecurityMode.SIGN, cert_der
            )
        assert excinfo.value.status == StatusCodes.BadSecurityPolicyRejected

    def test_strict_server_rejects_self_signed_cert(self, irng, rsa_2048, rsa_1024):
        server = build_server(
            irng,
            rsa_2048,
            behavior=ServerBehavior(reject_untrusted_client_certs=True),
        )
        client = build_client(server, irng.substream("c"), rsa_1024)
        client.hello()
        cert_der = server.config.certificate.raw_der
        with pytest.raises(TransportRejectedError) as excinfo:
            secure_open(
                client, POLICY_BASIC256SHA256, MessageSecurityMode.SIGN, cert_der
            )
        assert excinfo.value.status == StatusCodes.BadSecurityChecksFailed

    def test_strict_server_still_allows_none_channel(self, irng, rsa_2048, rsa_1024):
        server = build_server(
            irng,
            rsa_2048,
            behavior=ServerBehavior(reject_untrusted_client_certs=True),
        )
        client = build_client(server, irng.substream("c"), rsa_1024)
        client.hello()
        client.open_secure_channel()  # None policy is unaffected
        assert client.get_endpoints()


class TestSessions:
    def test_anonymous_session(self, client):
        client.hello()
        client.open_secure_channel()
        client.create_session()
        response = client.activate_session()
        assert response.response_header.service_result.is_good

    def test_username_session(self, client):
        client.hello()
        client.open_secure_channel()
        client.create_session()
        response = client.activate_session_username("operator", "secret")
        assert response.response_header.service_result.is_good

    def test_bad_password_rejected(self, client):
        client.hello()
        client.open_secure_channel()
        client.create_session()
        with pytest.raises(ServiceFaultError) as excinfo:
            client.activate_session_username("operator", "wrong")
        assert excinfo.value.status == StatusCodes.BadUserAccessDenied

    def test_unknown_user_rejected(self, client):
        client.hello()
        client.open_secure_channel()
        client.create_session()
        with pytest.raises(ServiceFaultError):
            client.activate_session_username("nobody", "x")

    def test_anonymous_disabled_rejected(self, irng, rsa_2048, rsa_1024):
        server = build_server(
            irng, rsa_2048, token_types=[UserTokenType.USERNAME]
        )
        client = build_client(server, irng.substream("c"), rsa_1024)
        client.hello()
        client.open_secure_channel()
        client.create_session()
        with pytest.raises(ServiceFaultError) as excinfo:
            client.activate_session()
        assert excinfo.value.status == StatusCodes.BadIdentityTokenRejected

    def test_faulty_session_config_rejects_even_anonymous(
        self, irng, rsa_2048, rsa_1024
    ):
        server = build_server(
            irng, rsa_2048, behavior=ServerBehavior(faulty_session_config=True)
        )
        client = build_client(server, irng.substream("c"), rsa_1024)
        client.hello()
        client.open_secure_channel()
        client.create_session()
        with pytest.raises(ServiceFaultError):
            client.activate_session()

    def test_session_required_for_browse(self, client):
        client.hello()
        client.open_secure_channel()
        with pytest.raises(ServiceFaultError) as excinfo:
            client.browse([NodeIds.RootFolder])
        assert excinfo.value.status == StatusCodes.BadSessionIdInvalid

    def test_activation_required_for_browse(self, client):
        client.hello()
        client.open_secure_channel()
        client.create_session()
        with pytest.raises(ServiceFaultError) as excinfo:
            client.browse([NodeIds.RootFolder])
        assert excinfo.value.status == StatusCodes.BadSessionNotActivated

    def test_close_session_invalidates_token(self, client):
        client.hello()
        client.open_secure_channel()
        client.create_session()
        client.activate_session()
        client.close_session()
        with pytest.raises(ServiceFaultError):
            client.browse([NodeIds.RootFolder])

    def test_secure_session_with_signatures(self, irng, rsa_2048, rsa_1024):
        server = build_server(irng, rsa_2048)
        client = build_client(server, irng.substream("c"), rsa_1024)
        client.hello()
        client.open_secure_channel()
        cert_der = server.config.certificate.raw_der
        client2 = build_client(server, irng.substream("c2"), rsa_1024)
        client2.hello()
        secure_open(
            client2,
            POLICY_BASIC256SHA256,
            MessageSecurityMode.SIGN_AND_ENCRYPT,
            cert_der,
        )
        client2.create_session()
        response = client2.activate_session()
        assert response.response_header.service_result.is_good


class TestBrowseReadCall:
    @pytest.fixture()
    def active_client(self, client):
        client.hello()
        client.open_secure_channel()
        client.create_session()
        client.activate_session()
        return client

    def test_browse_root(self, active_client):
        results = active_client.browse([NodeIds.RootFolder])
        names = {
            r.browse_name.name
            for r in results[0].references
        }
        assert {"Objects", "Types", "Views"} <= names

    def test_browse_objects_shows_demo(self, active_client):
        results = active_client.browse([NodeIds.ObjectsFolder])
        names = {r.browse_name.name for r in results[0].references}
        assert "Plant" in names
        assert "Server" in names

    def test_browse_unknown_node(self, active_client):
        results = active_client.browse([NodeId(9, 424242)])
        assert results[0].status_code == StatusCodes.BadNodeIdUnknown

    def test_read_public_value(self, active_client):
        values = active_client.read_values(
            [NodeId(DEMO_NS, "Plant/m3InflowPerHour")]
        )
        assert values[0].status.is_good
        assert values[0].value.value == 12.5

    def test_read_protected_value_denied_anonymously(self, active_client):
        values = active_client.read_values([NodeId(DEMO_NS, "Plant/Secret")])
        assert values[0].status == StatusCodes.BadUserAccessDenied

    def test_protected_value_readable_with_credentials(self, client):
        client.hello()
        client.open_secure_channel()
        client.create_session()
        client.activate_session_username("operator", "secret")
        values = client.read_values([NodeId(DEMO_NS, "Plant/Secret")])
        assert values[0].status.is_good
        assert values[0].value.value == "classified"

    def test_read_namespace_array(self, active_client):
        values = active_client.read_values([NodeIds.Server_NamespaceArray])
        assert values[0].status.is_good
        assert "urn:repro:tests:demo" in values[0].value.value

    def test_read_software_version(self, active_client):
        values = active_client.read_values([NodeIds.Server_SoftwareVersion])
        assert values[0].value.value == "3.10.1"

    def test_read_user_access_level(self, active_client):
        values = active_client.read_attributes(
            [
                (NodeId(DEMO_NS, "Plant/m3InflowPerHour"), AttributeId.USER_ACCESS_LEVEL),
                (NodeId(DEMO_NS, "Plant/rSetFillLevel"), AttributeId.USER_ACCESS_LEVEL),
                (NodeId(DEMO_NS, "Plant/Secret"), AttributeId.USER_ACCESS_LEVEL),
            ]
        )
        read_only, read_write, locked = (v.value.value for v in values)
        assert read_only & 0x01 and not read_only & 0x02
        assert read_write & 0x03 == 0x03
        assert locked == 0

    def test_read_user_executable(self, active_client):
        values = active_client.read_attributes(
            [(NodeId(DEMO_NS, "Plant/AddEndpoint"), AttributeId.USER_EXECUTABLE)]
        )
        assert values[0].value.value is True

    def test_read_bad_attribute(self, active_client):
        values = active_client.read_attributes(
            [(NodeId(DEMO_NS, "Plant/m3InflowPerHour"), AttributeId.EXECUTABLE)]
        )
        assert values[0].status == StatusCodes.BadAttributeIdInvalid


class RechunkedReplies(LoopbackStream):
    """Re-cuts each None-policy MSG reply into a valid C + F chunk pair,
    each chunk with its own sequence header."""

    def read(self) -> bytes:
        data = super().read()
        if data[:4] != b"MSGF":
            return data
        ids = data[8:16]  # secure channel id + token id
        sequence, request_id = struct.unpack_from("<II", data, 16)
        body = data[24:]
        half = len(body) // 2
        return encode_frame(
            MessageType.MESSAGE,
            "C",
            ids + struct.pack("<II", sequence, request_id) + body[:half],
        ) + encode_frame(
            MessageType.MESSAGE,
            "F",
            ids + struct.pack("<II", sequence + 1, request_id) + body[half:],
        )


class RechunkedRequests(LoopbackStream):
    """Re-marks each outgoing frame of one message type with another
    chunk type, leaving every other byte as the client wrote it."""

    def __init__(self, server, message_type: str, chunk_type: str):
        super().__init__(server)
        self._final = f"{message_type}F".encode()
        self._chunk = chunk_type.encode()

    def write(self, data: bytes) -> None:
        if data[:4] == self._final:
            data = data[:3] + self._chunk + data[4:]
        super().write(data)


class TestChunkedRequests:
    @pytest.mark.parametrize(
        "message_type, chunk_type",
        [("MSG", "C"), ("MSG", "A"), ("OPN", "C"), ("OPN", "A")],
    )
    def test_non_final_request_chunk_refused_by_chunk_type(
        self, server, irng, rsa_1024, message_type, chunk_type
    ):
        """The server twin of the client's rule: a request in an
        intermediate or abort chunk earns an ERR frame naming the
        chunk type and a closed connection, never a full reply."""
        stream = RechunkedRequests(server, message_type, chunk_type)
        client = UaClient(
            stream,
            build_client(server, irng, rsa_1024).identity,
            irng.substream("chunked"),
            endpoint_url="opc.tcp://10.0.0.1:4840/",
        )
        client.hello()
        with pytest.raises(TransportRejectedError) as excinfo:
            client.open_secure_channel()
            client.get_endpoints()
        assert excinfo.value.status == StatusCodes.BadTcpMessageTypeInvalid
        assert excinfo.value.reason.startswith(
            f"{message_type} request in a non-final chunk ('{chunk_type}')"
        )
        assert stream._connection.closed


class TestChunkedReplies:
    def test_multi_chunk_reply_refused_by_chunk_type(
        self, server, irng, rsa_1024
    ):
        """Every message travels as one final chunk; a reply cut into
        several is refused by name, not decoded from its first part."""
        client = UaClient(
            RechunkedReplies(server),
            build_client(server, irng, rsa_1024).identity,
            irng.substream("chunked"),
            endpoint_url="opc.tcp://10.0.0.1:4840/",
        )
        client.hello()
        client.open_secure_channel()
        with pytest.raises(
            UaClientError, match=r"MSG reply in a non-final chunk \('C'\)"
        ):
            client.get_endpoints()
