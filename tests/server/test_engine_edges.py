"""Edge-case behaviour of the server engine."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.client import ServiceFaultError, TransportRejectedError, UaClient
from repro.secure.policies import POLICY_BASIC256SHA256, POLICY_NONE
from repro.server import EndpointConfig
from repro.transport.connection import encode_frame
from repro.transport.messages import ErrorMessage, MessageType
from repro.uabin.enums import MessageSecurityMode, UserTokenType
from repro.uabin.registry import encode_body_nodeid
from repro.uabin.statuscodes import StatusCodes
from repro.uabin.types_channel import OpenSecureChannelRequest
from repro.util.rng import DeterministicRng

from tests.server.helpers import (
    LoopbackStream,
    build_client,
    build_server,
    cut_last_byte,
    secure_open,
)


@pytest.fixture()
def erng():
    return DeterministicRng(555, "engine-edges")


class TestDiscoveryOnlyChannel:
    """Secure-only servers still answer GetEndpoints on a None channel
    but refuse sessions on it (OPC 10000-4 discovery rules)."""

    def make_secure_only_server(self, erng, rsa_2048):
        return build_server(
            erng,
            rsa_2048,
            endpoint_configs=[
                EndpointConfig(
                    MessageSecurityMode.SIGN_AND_ENCRYPT, POLICY_BASIC256SHA256
                )
            ],
            token_types=[UserTokenType.ANONYMOUS],
        )

    def test_get_endpoints_works(self, erng, rsa_2048, rsa_1024):
        server = self.make_secure_only_server(erng, rsa_2048)
        client = build_client(server, erng.substream("c"), rsa_1024)
        client.hello()
        client.open_secure_channel()  # None policy, discovery-only
        endpoints = client.get_endpoints()
        assert len(endpoints) == 1
        assert endpoints[0].security_mode == MessageSecurityMode.SIGN_AND_ENCRYPT

    def test_create_session_rejected_on_discovery_channel(
        self, erng, rsa_2048, rsa_1024
    ):
        server = self.make_secure_only_server(erng, rsa_2048)
        client = build_client(server, erng.substream("c2"), rsa_1024)
        client.hello()
        client.open_secure_channel()
        with pytest.raises(ServiceFaultError) as excinfo:
            client.create_session()
        assert excinfo.value.status == StatusCodes.BadSecurityModeInsufficient

    def test_session_works_on_proper_secure_channel(
        self, erng, rsa_2048, rsa_1024
    ):
        server = self.make_secure_only_server(erng, rsa_2048)
        client = build_client(server, erng.substream("c3"), rsa_1024)
        client.hello()
        secure_open(
            client,
            POLICY_BASIC256SHA256,
            MessageSecurityMode.SIGN_AND_ENCRYPT,
            server.config.certificate.raw_der,
        )
        client.create_session()
        response = client.activate_session()
        assert response.response_header.service_result.is_good


class TestPerEndpointTokenOverride:
    """The Table-2 host advertising anonymous only on secure endpoints."""

    def make_override_server(self, erng, rsa_2048):
        return build_server(
            erng,
            rsa_2048,
            endpoint_configs=[
                EndpointConfig(
                    MessageSecurityMode.NONE,
                    POLICY_NONE,
                    token_types=(UserTokenType.USERNAME,),
                ),
                EndpointConfig(
                    MessageSecurityMode.SIGN_AND_ENCRYPT, POLICY_BASIC256SHA256
                ),
            ],
            token_types=[UserTokenType.ANONYMOUS, UserTokenType.USERNAME],
        )

    def test_none_endpoint_does_not_advertise_anonymous(
        self, erng, rsa_2048, rsa_1024
    ):
        server = self.make_override_server(erng, rsa_2048)
        client = build_client(server, erng.substream("c"), rsa_1024)
        client.hello()
        client.open_secure_channel()
        endpoints = client.get_endpoints()
        by_mode = {e.security_mode: e for e in endpoints}
        none_tokens = by_mode[MessageSecurityMode.NONE].token_types()
        secure_tokens = by_mode[
            MessageSecurityMode.SIGN_AND_ENCRYPT
        ].token_types()
        assert UserTokenType.ANONYMOUS not in none_tokens
        assert UserTokenType.ANONYMOUS in secure_tokens

    def test_anonymous_rejected_on_none_channel(self, erng, rsa_2048, rsa_1024):
        server = self.make_override_server(erng, rsa_2048)
        client = build_client(server, erng.substream("c2"), rsa_1024)
        client.hello()
        client.open_secure_channel()
        client.create_session()
        with pytest.raises(ServiceFaultError) as excinfo:
            client.activate_session()
        assert excinfo.value.status == StatusCodes.BadIdentityTokenRejected

    def test_anonymous_accepted_on_secure_channel(self, erng, rsa_2048, rsa_1024):
        server = self.make_override_server(erng, rsa_2048)
        client = build_client(server, erng.substream("c3"), rsa_1024)
        client.hello()
        secure_open(
            client,
            POLICY_BASIC256SHA256,
            MessageSecurityMode.SIGN_AND_ENCRYPT,
            server.config.certificate.raw_der,
        )
        client.create_session()
        response = client.activate_session()
        assert response.response_header.service_result.is_good


class TestMalformedTraffic:
    def test_garbage_bytes_get_error_frame(self, erng, rsa_2048):
        server = build_server(erng, rsa_2048)
        connection = server.new_connection()
        out = connection.receive(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        assert out.startswith(b"ERR") or connection.closed

    def test_opn_before_hello_rejected(self, erng, rsa_2048):
        server = build_server(erng, rsa_2048)
        connection = server.new_connection()
        from repro.transport.connection import encode_frame
        from repro.transport.messages import MessageType

        out = connection.receive(encode_frame(MessageType.OPEN_CHANNEL, "F", b"x" * 20))
        assert out.startswith(b"ERR")
        assert connection.closed

    def test_msg_without_channel_rejected(self, erng, rsa_2048):
        from repro.transport.connection import encode_frame
        from repro.transport.messages import (
            HelloMessage,
            MessageType,
        )

        server = build_server(erng, rsa_2048)
        connection = server.new_connection()
        connection.receive(
            encode_frame(
                MessageType.HELLO, "F", HelloMessage().encode_body()
            )
        )
        out = connection.receive(
            encode_frame(MessageType.MESSAGE, "F", b"\x00" * 16)
        )
        assert out.startswith(b"ERR")

    def test_short_encrypted_msg_answered_with_security_error(
        self, erng, rsa_2048, rsa_1024
    ):
        """A SignAndEncrypt chunk one byte short of whole cipher blocks
        gets a truthful ERR frame instead of crashing the connection."""

        class ShortMessages(LoopbackStream):
            def write(self, data: bytes) -> None:
                if data[:3] == b"MSG":
                    data = cut_last_byte(data)
                super().write(data)

        server = build_server(erng, rsa_2048)
        identity = build_client(server, erng.substream("c"), rsa_1024).identity
        client = UaClient(
            ShortMessages(server),
            identity,
            erng.substream("short"),
            endpoint_url="opc.tcp://10.0.0.1:4840/",
        )
        client.hello()
        secure_open(
            client,
            POLICY_BASIC256SHA256,
            MessageSecurityMode.SIGN_AND_ENCRYPT,
            server.config.certificate.raw_der,
        )
        with pytest.raises(TransportRejectedError) as excinfo:
            client.get_endpoints()
        assert excinfo.value.status == StatusCodes.BadSecurityChecksFailed


class _RecordingStream(LoopbackStream):
    """A loopback stream that keeps every frame the client sends."""

    def __init__(self, server):
        super().__init__(server)
        self.sent = []

    def write(self, data: bytes) -> None:
        self.sent.append(data)
        super().write(data)


def _xor(frame: bytes, at: int, mask: int) -> bytes:
    return frame[:at] + bytes([frame[at] ^ mask]) + frame[at + 1 :]


#: The policy URI's first character in an OPN frame: past the 8-byte
#: header, the secure channel id and the string's length.
_POLICY_URI_AT = 16


class TestMalformedRequests:
    """Bytes a client sends can earn its connection an ERR frame and a
    close, never an exception out of ``ServerConnection.receive``."""

    @pytest.fixture()
    def handshake(self, erng, rsa_2048, rsa_1024):
        """A server, and the HEL and None-policy OPN frames the test
        client sends it."""
        server = build_server(erng, rsa_2048)
        stream = _RecordingStream(server)
        client = UaClient(
            stream,
            build_client(server, erng.substream("c"), rsa_1024).identity,
            erng.substream("opn"),
            endpoint_url="opc.tcp://10.0.0.1:4840/",
        )
        client.hello()
        client.open_secure_channel()
        hel, opn = stream.sent
        return server, hel, opn

    @staticmethod
    def _answer(handshake, frame: bytes):
        server, hel, _ = handshake
        connection = server.new_connection()
        connection.receive(hel)
        return connection, connection.receive(frame)

    @staticmethod
    def _assert_decoding_error(connection, out: bytes, reason: str):
        assert out[:3] == b"ERR"
        error = ErrorMessage.decode_body(out[8:])
        assert error.error_code == StatusCodes.BadDecodingError.value
        assert reason in error.reason
        assert connection.closed

    @staticmethod
    def _type_id_at(opn: bytes) -> int:
        return opn.index(
            encode_body_nodeid(OpenSecureChannelRequest).to_bytes()
        )

    def test_policy_uri_not_utf8(self, handshake):
        """UnicodeDecodeError from the policy-URI peek."""
        opn = handshake[2]
        connection, out = self._answer(
            handshake, _xor(opn, _POLICY_URI_AT, 0x80)
        )
        self._assert_decoding_error(
            connection, out, "'utf-8' codec can't decode byte 0xe8"
        )

    def test_open_body_too_short_for_the_policy_peek(self, handshake):
        """NotEnoughData from the policy-URI peek."""
        frame = encode_frame(MessageType.OPEN_CHANNEL, "F", b"\x00\x00")
        connection, out = self._answer(handshake, frame)
        self._assert_decoding_error(
            connection, out, "read of 4 bytes with only 2 remaining"
        )

    def test_unknown_request_type(self, handshake):
        """DecodingError: the type id names no registered structure."""
        opn = handshake[2]
        namespace_at = self._type_id_at(opn) + 1
        connection, out = self._answer(
            handshake, _xor(opn, namespace_at, 0x20)
        )
        self._assert_decoding_error(
            connection, out, "unknown message type: ns=32;i=446"
        )

    def test_invalid_type_id_encoding(self, handshake):
        """ValueError: the type id's encoding byte is no NodeId form."""
        opn = handshake[2]
        connection, out = self._answer(
            handshake, _xor(opn, self._type_id_at(opn), 0x1C)
        )
        self._assert_decoding_error(
            connection, out, "invalid NodeId encoding byte: 0x1d"
        )

    # The fixture is only read across examples: each one feeds a fresh
    # connection of the same server.
    @settings(
        derandomize=True,
        max_examples=500,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(offset=st.integers(0, 1023), mask=st.integers(1, 255))
    def test_any_garbled_open_is_answered(self, handshake, offset, mask):
        opn = handshake[2]
        at = 8 + offset % (len(opn) - 8)  # past the frame header
        connection, out = self._answer(handshake, _xor(opn, at, mask))
        assert out[:3] == (b"ERR" if connection.closed else b"OPN")
