"""Client/server secure-channel interop across every policy and mode."""

import struct

import pytest

from repro.secure import crypto_suite
from repro.secure.channel import (
    ClientSecureChannel,
    SecureChannelError,
    ServerSecureChannel,
    decode_service,
    encode_service,
)
from repro.secure.keysets import derive_channel_keys
from repro.secure.policies import (
    ALL_POLICIES,
    POLICY_BASIC128RSA15,
    POLICY_BASIC256SHA256,
    POLICY_NONE,
)
from repro.transport.messages import HEADER_SIZE
from repro.uabin.enums import MessageSecurityMode, SecurityTokenRequestType
from repro.uabin.types_channel import (
    ChannelSecurityToken,
    OpenSecureChannelRequest,
    OpenSecureChannelResponse,
)
from repro.uabin.types_discovery import GetEndpointsRequest, GetEndpointsResponse
from repro.util.rng import DeterministicRng
from repro.util.simtime import parse_utc
from repro.x509.builder import make_self_signed


@pytest.fixture(scope="module")
def channel_certs(rsa_1024, rsa_2048):
    rng = DeterministicRng(77, "channel-tests")
    client_cert = make_self_signed(
        rsa_1024,
        common_name="scanner",
        application_uri="urn:scanner",
        not_before=parse_utc("2020-01-01"),
        hash_name="sha256",
        rng=rng.substream("client"),
    )
    server_cert = make_self_signed(
        rsa_2048,
        common_name="server",
        application_uri="urn:server",
        not_before=parse_utc("2020-01-01"),
        hash_name="sha256",
        rng=rng.substream("server"),
    )
    return client_cert, rsa_1024.private, server_cert, rsa_2048.private


def handshake(policy, mode, channel_certs):
    client_cert, client_key, server_cert, server_key = channel_certs
    rng = DeterministicRng(5, f"hs-{policy.short_label}-{mode}")
    secure = policy is not POLICY_NONE
    client = ClientSecureChannel(
        policy,
        mode,
        rng.substream("client"),
        client_certificate=client_cert if secure else None,
        client_private_key=client_key if secure else None,
        server_certificate=server_cert if secure else None,
    )
    server = ServerSecureChannel(
        policy,
        mode,
        rng.substream("server"),
        channel_id=99,
        server_certificate=server_cert if secure else None,
        server_private_key=server_key if secure else None,
    )
    opn = client.build_open_request(
        OpenSecureChannelRequest(
            request_type=SecurityTokenRequestType.ISSUE, security_mode=mode
        )
    )
    request = server.handle_open_request(opn[HEADER_SIZE:])
    assert request.security_mode == mode
    response_frame = server.build_open_response(
        OpenSecureChannelResponse(
            security_token=ChannelSecurityToken(channel_id=99, token_id=7)
        )
    )
    response = client.handle_open_response(response_frame[HEADER_SIZE:])
    assert response.security_token.channel_id == 99
    assert client.channel_id == 99
    assert client.token_id == 7
    return client, server


MODE_FOR = {
    True: [MessageSecurityMode.SIGN, MessageSecurityMode.SIGN_AND_ENCRYPT],
    False: [MessageSecurityMode.NONE],
}


def all_policy_mode_pairs():
    pairs = []
    for policy in ALL_POLICIES:
        for mode in MODE_FOR[policy is not POLICY_NONE]:
            pairs.append((policy, mode))
    return pairs


class TestHandshake:
    @pytest.mark.parametrize(
        "policy,mode",
        all_policy_mode_pairs(),
        ids=lambda v: getattr(v, "short_label", None) or getattr(v, "name", v),
    )
    def test_open_channel(self, policy, mode, channel_certs):
        handshake(policy, mode, channel_certs)

    def test_server_sees_client_certificate(self, channel_certs):
        client, server = handshake(
            POLICY_BASIC256SHA256, MessageSecurityMode.SIGN, channel_certs
        )
        assert server.client_certificate is not None
        assert server.client_certificate.subject.common_name == "scanner"


class TestMessageExchange:
    @pytest.mark.parametrize(
        "policy,mode",
        all_policy_mode_pairs(),
        ids=lambda v: getattr(v, "short_label", None) or getattr(v, "name", v),
    )
    def test_request_round_trip(self, policy, mode, channel_certs):
        client, server = handshake(policy, mode, channel_certs)
        request = GetEndpointsRequest(endpoint_url="opc.tcp://10.0.0.1:4840/")
        frame = client.encode_message(request, request_id=42)
        message, request_id = server.decode_message(frame[HEADER_SIZE:])
        assert message == request
        assert request_id == 42

        response = GetEndpointsResponse(endpoints=[])
        response_frame = server.encode_message(response, request_id=42)
        decoded, rid = client.decode_message(response_frame[HEADER_SIZE:])
        assert decoded == response
        assert rid == 42

    def test_encrypted_frames_hide_plaintext(self, channel_certs):
        client, _server = handshake(
            POLICY_BASIC256SHA256,
            MessageSecurityMode.SIGN_AND_ENCRYPT,
            channel_certs,
        )
        url = "opc.tcp://very-secret-host:4840/"
        frame = client.encode_message(
            GetEndpointsRequest(endpoint_url=url), request_id=1
        )
        assert url.encode("ascii") not in frame

    def test_signed_frames_expose_plaintext_but_authenticate(self, channel_certs):
        client, server = handshake(
            POLICY_BASIC256SHA256, MessageSecurityMode.SIGN, channel_certs
        )
        url = "opc.tcp://visible-host:4840/"
        frame = client.encode_message(
            GetEndpointsRequest(endpoint_url=url), request_id=1
        )
        assert url.encode("ascii") in frame  # Sign does not encrypt

    def test_tampered_signed_frame_rejected(self, channel_certs):
        client, server = handshake(
            POLICY_BASIC256SHA256, MessageSecurityMode.SIGN, channel_certs
        )
        frame = bytearray(
            client.encode_message(GetEndpointsRequest(), request_id=1)
        )
        frame[HEADER_SIZE + 12] ^= 0x01
        with pytest.raises(SecureChannelError):
            server.decode_message(bytes(frame[HEADER_SIZE:]))

    @pytest.mark.parametrize("tamper", ["flip-last-byte", "one-byte-short"])
    def test_tampered_encrypted_frame_rejected(self, tamper, channel_certs):
        client, server = handshake(
            POLICY_BASIC128RSA15,
            MessageSecurityMode.SIGN_AND_ENCRYPT,
            channel_certs,
        )
        frame = bytearray(
            client.encode_message(GetEndpointsRequest(), request_id=1)
        )
        if tamper == "flip-last-byte":
            frame[-1] ^= 0xFF
        else:
            del frame[-1]
        with pytest.raises(SecureChannelError):
            server.decode_message(bytes(frame[HEADER_SIZE:]))

    def test_encrypted_padding_overrun_rejected(self, channel_certs):
        """A correctly signed chunk whose padding byte claims more bytes
        than the chunk holds is rejected, not sliced into garbage."""
        policy = POLICY_BASIC256SHA256
        client, server = handshake(
            policy, MessageSecurityMode.SIGN_AND_ENCRYPT, channel_certs
        )
        client_keys, _ = derive_channel_keys(
            policy, client.client_nonce, server.server_nonce
        )
        prefix = struct.pack("<II", server.channel_id, server.token_id)
        # Sequence header, filler, then a padding byte of 255.
        signed_part = bytes(8) + bytes(23) + b"\xff"
        encrypted_len = len(signed_part) + policy.signature_length
        header = b"MSGF" + struct.pack(
            "<I", HEADER_SIZE + len(prefix) + encrypted_len
        )
        signature = crypto_suite.sym_sign(
            policy, client_keys, header + prefix + signed_part
        )
        body = prefix + crypto_suite.sym_encrypt(
            policy, client_keys, signed_part + signature
        )
        with pytest.raises(SecureChannelError, match="padding"):
            server.decode_message(body)

    def test_wrong_channel_id_rejected(self, channel_certs):
        client, server = handshake(
            POLICY_NONE, MessageSecurityMode.NONE, channel_certs
        )
        frame = bytearray(client.encode_message(GetEndpointsRequest(), request_id=1))
        frame[HEADER_SIZE] ^= 0x55  # corrupt channel id
        with pytest.raises(SecureChannelError):
            server.decode_message(bytes(frame[HEADER_SIZE:]))


class TestChannelValidation:
    def test_policy_mode_mismatch_rejected(self, channel_certs):
        rng = DeterministicRng(1, "bad")
        with pytest.raises(SecureChannelError):
            ClientSecureChannel(
                POLICY_NONE, MessageSecurityMode.SIGN, rng
            )

    def test_secure_policy_with_none_mode_rejected(self, channel_certs):
        client_cert, client_key, server_cert, _ = channel_certs
        rng = DeterministicRng(1, "bad2")
        with pytest.raises(SecureChannelError):
            ClientSecureChannel(
                POLICY_BASIC256SHA256,
                MessageSecurityMode.NONE,
                rng,
                client_certificate=client_cert,
                client_private_key=client_key,
                server_certificate=server_cert,
            )

    def test_missing_client_cert_rejected(self, channel_certs):
        _, _, server_cert, _ = channel_certs
        rng = DeterministicRng(1, "bad3")
        with pytest.raises(SecureChannelError):
            ClientSecureChannel(
                POLICY_BASIC256SHA256,
                MessageSecurityMode.SIGN,
                rng,
                server_certificate=server_cert,
            )

    def test_policy_uri_mismatch_detected_by_server(self, channel_certs):
        client_cert, client_key, server_cert, server_key = channel_certs
        rng = DeterministicRng(3, "mismatch")
        client = ClientSecureChannel(
            POLICY_NONE, MessageSecurityMode.NONE, rng.substream("c")
        )
        server = ServerSecureChannel(
            POLICY_BASIC256SHA256,
            MessageSecurityMode.SIGN,
            rng.substream("s"),
            channel_id=1,
            server_certificate=server_cert,
            server_private_key=server_key,
        )
        opn = client.build_open_request(OpenSecureChannelRequest())
        with pytest.raises(SecureChannelError):
            server.handle_open_request(opn[HEADER_SIZE:])


class TestServiceBodyHelpers:
    def test_encode_decode_service(self):
        request = GetEndpointsRequest(endpoint_url="opc.tcp://x:4840/")
        assert decode_service(encode_service(request)) == request
