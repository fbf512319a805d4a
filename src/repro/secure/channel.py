"""Secure-channel state machines for client and server.

A secure channel protects chunks in two regimes (OPC 10000-6 §6):

* **Asymmetric** — OpenSecureChannel messages are always signed with
  the sender's private key and encrypted with the receiver's public
  key whenever the security policy is not None.  The sender's DER
  certificate travels in the security header; this is where the
  paper's scanner presents its self-signed certificate and where
  strict servers reject it (the 80 "secure channel" rejections of
  Table 2).
* **Symmetric** — after key derivation, MSG chunks are HMAC-signed
  (mode Sign) and additionally AES-CBC encrypted (SignAndEncrypt)
  with the derived key sets.

The channel object does not own the socket; it transforms between
service structures and protected frame bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.secure import crypto_suite
from repro.secure.keysets import SymmetricKeys, derive_channel_keys
from repro.secure.policies import POLICY_NONE, SecurityPolicy
from repro.transport.connection import encode_frame
from repro.transport.messages import HEADER_SIZE, MessageType
from repro.uabin.builtin import read_bytestring, read_string, write_bytestring, write_string
from repro.uabin.enums import MessageSecurityMode
from repro.uabin.nodeid import NodeId
from repro.uabin.registry import encode_body_nodeid, lookup_struct
from repro.uabin.structs import DecodingError, UaStruct
from repro.uabin.types_channel import (
    OpenSecureChannelRequest,
    OpenSecureChannelResponse,
)
from repro.util.binary import BinaryReader, BinaryWriter, NotEnoughData
from repro.x509.certificate import (
    Certificate,
    CertificateError,
    parse_certificate,
)
from repro.x509.fingerprint import sha1_thumbprint


class SecureChannelError(Exception):
    """Security processing failed (bad signature, bad padding, ...)."""


#: What decoding malformed peer bytes raises, from a transport body up
#: to a protected service body (nesting, such as DiagnosticInfo chains,
#: can exhaust the recursion limit).  Bad bytes are the peer's fault:
#: the client records each as a protocol error, and the server answers
#: each with an ERR frame.
MALFORMED_PEER_BYTES = (
    CertificateError,
    DecodingError,
    NotEnoughData,
    RecursionError,
    SecureChannelError,
    ValueError,
)


@dataclass
class _SequenceState:
    sequence_number: int = 0

    def next(self) -> int:
        self.sequence_number += 1
        return self.sequence_number


def encode_service(message: UaStruct) -> bytes:
    """Encode a service message body: type NodeId + structure."""
    writer = BinaryWriter()
    encode_body_nodeid(type(message)).encode(writer)
    message.encode(writer)
    return writer.to_bytes()


def decode_service(data) -> UaStruct:
    """Decode a service message body into its structure.

    ``data`` may be any buffer (``bytes`` or a zero-copy
    ``memoryview`` of a larger frame); decoded field values are always
    real ``bytes``/``str``, so no view outlives this call.
    """
    reader = BinaryReader(data)
    type_id = NodeId.decode(reader)
    cls = lookup_struct(type_id)
    message = cls.decode(reader)
    return message


def _write_sequence_header(writer: BinaryWriter, sequence: int, request_id: int) -> None:
    writer.write_uint32(sequence)
    writer.write_uint32(request_id)


class _ChannelBase:
    """State shared by both channel halves."""

    def __init__(self, policy: SecurityPolicy, mode: MessageSecurityMode):
        if policy is POLICY_NONE and mode != MessageSecurityMode.NONE:
            raise SecureChannelError("policy None requires security mode None")
        if policy is not POLICY_NONE and mode == MessageSecurityMode.NONE:
            raise SecureChannelError(
                "a security policy other than None requires Sign or SignAndEncrypt"
            )
        self.policy = policy
        self.mode = mode
        self.channel_id = 0
        self.token_id = 0
        self._send_seq = _SequenceState()
        self._local_keys: SymmetricKeys | None = None
        self._remote_keys: SymmetricKeys | None = None

    # --- symmetric MSG protection -------------------------------------------

    def encode_message(
        self,
        message: UaStruct,
        request_id: int,
        message_type: MessageType = MessageType.MESSAGE,
    ) -> bytes:
        """Protect one service message as a single final chunk."""
        body = encode_service(message)
        plain_writer = BinaryWriter()
        _write_sequence_header(plain_writer, self._send_seq.next(), request_id)
        plain_writer.write_bytes(body)
        plain = plain_writer.to_bytes()

        prefix_writer = BinaryWriter()
        prefix_writer.write_uint32(self.channel_id)
        prefix_writer.write_uint32(self.token_id)
        prefix = prefix_writer.to_bytes()

        if self.mode == MessageSecurityMode.NONE:
            return encode_frame(message_type, "F", prefix + plain)

        keys = self._local_keys
        if keys is None:
            raise SecureChannelError("symmetric keys not derived yet")
        sig_len = self.policy.signature_length

        if self.mode == MessageSecurityMode.SIGN:
            frame_size = HEADER_SIZE + len(prefix) + len(plain) + sig_len
            header = _frame_header_bytes(message_type, "F", frame_size)
            signed = crypto_suite.sym_sign(
                self.policy, keys, header + prefix + plain
            )
            return header + prefix + plain + signed

        # SignAndEncrypt: pad plain+padding_field+signature to block size.
        block = self.policy.sym_block_size
        padding_size = (block - (len(plain) + 1 + sig_len) % block) % block
        padding = bytes([padding_size]) * (padding_size + 1)
        encrypted_len = len(plain) + len(padding) + sig_len
        frame_size = HEADER_SIZE + len(prefix) + encrypted_len
        header = _frame_header_bytes(message_type, "F", frame_size)
        signature = crypto_suite.sym_sign(
            self.policy, keys, header + prefix + plain + padding
        )
        ciphertext = crypto_suite.sym_encrypt(
            self.policy, keys, plain + padding + signature
        )
        return header + prefix + ciphertext

    def decode_message(
        self,
        frame_body: bytes,
        message_type: MessageType = MessageType.MESSAGE,
    ) -> tuple[UaStruct, int]:
        """Unprotect a MSG/CLO chunk body; returns (message, request_id)."""
        reader = BinaryReader(frame_body)
        channel_id = reader.read_uint32()
        token_id = reader.read_uint32()
        if self.channel_id and channel_id != self.channel_id:
            raise SecureChannelError(
                f"unknown secure channel id: {channel_id}"
            )
        if self.token_id and token_id != self.token_id:
            raise SecureChannelError(f"unknown security token: {token_id}")
        if self.mode == MessageSecurityMode.NONE:
            # No signature to splice: the body decodes straight off a
            # zero-copy view of the frame.
            plain = reader.read_view(reader.remaining)
        else:
            # The signed paths concatenate with bytes prefixes below,
            # so the protected region must be materialized.
            rest = reader.read_bytes(reader.remaining)
            keys = self._remote_keys
            if keys is None:
                raise SecureChannelError("symmetric keys not derived yet")
            sig_len = self.policy.signature_length
            if self.mode == MessageSecurityMode.SIGN_AND_ENCRYPT:
                block = self.policy.sym_block_size
                if len(rest) % block or len(rest) < block + sig_len:
                    raise SecureChannelError(
                        f"encrypted chunk of {len(rest)} bytes is not whole "
                        f"{block}-byte blocks holding a signature"
                    )
                decrypted = crypto_suite.sym_decrypt(self.policy, keys, rest)
                signature = decrypted[-sig_len:]
                signed_part = decrypted[:-sig_len]
                header = _frame_header_bytes(
                    message_type, "F", HEADER_SIZE + 8 + len(rest)
                )
                if not crypto_suite.sym_verify(
                    self.policy,
                    keys,
                    header + frame_body[:8] + signed_part,
                    signature,
                ):
                    raise SecureChannelError("bad symmetric signature")
                padding_size = signed_part[-1]
                if padding_size + 1 > len(signed_part):
                    raise SecureChannelError("invalid symmetric padding")
                plain = signed_part[: len(signed_part) - padding_size - 1]
            else:  # SIGN
                signature = rest[-sig_len:]
                plain = rest[:-sig_len]
                header = _frame_header_bytes(
                    message_type, "F", HEADER_SIZE + len(frame_body)
                )
                if not crypto_suite.sym_verify(
                    self.policy,
                    keys,
                    header + frame_body[:8] + plain,
                    signature,
                ):
                    raise SecureChannelError("bad symmetric signature")

        plain_reader = BinaryReader(plain)
        plain_reader.read_uint32()  # sequence number
        request_id = plain_reader.read_uint32()
        message = decode_service(plain_reader.read_view(plain_reader.remaining))
        return message, request_id


def _frame_header_bytes(message_type: MessageType, chunk: str, size: int) -> bytes:
    writer = BinaryWriter()
    writer.write_bytes(message_type.value.encode("ascii"))
    writer.write_bytes(chunk.encode("ascii"))
    writer.write_uint32(size)
    return writer.to_bytes()


def _write_asym_security_header(
    writer: BinaryWriter,
    policy: SecurityPolicy,
    sender_cert_der: bytes | None,
    receiver_thumbprint: bytes | None,
) -> None:
    write_string(writer, policy.uri)
    write_bytestring(writer, sender_cert_der)
    write_bytestring(writer, receiver_thumbprint)


class ClientSecureChannel(_ChannelBase):
    """Client half of a secure channel."""

    def __init__(
        self,
        policy: SecurityPolicy,
        mode: MessageSecurityMode,
        rng: random.Random,
        client_certificate: Certificate | None = None,
        client_private_key=None,
        server_certificate: Certificate | None = None,
    ):
        super().__init__(policy, mode)
        self._rng = rng
        self.client_certificate = client_certificate
        self._client_key = client_private_key
        self.server_certificate = server_certificate
        self.client_nonce = b""
        if policy is not POLICY_NONE:
            if client_certificate is None or client_private_key is None:
                raise SecureChannelError(
                    "secure policies require a client certificate and key"
                )
            if server_certificate is None:
                raise SecureChannelError(
                    "secure policies require the server certificate"
                )

    def build_open_request(self, request: OpenSecureChannelRequest) -> bytes:
        """Produce the protected OPN frame for the request."""
        if self.policy is not POLICY_NONE:
            self.client_nonce = self._rng.getrandbits(
                self.policy.nonce_length * 8
            ).to_bytes(self.policy.nonce_length, "big")
            request.client_nonce = self.client_nonce

        security_writer = BinaryWriter()
        security_writer.write_uint32(self.channel_id)
        _write_asym_security_header(
            security_writer,
            self.policy,
            self.client_certificate.raw_der if self.client_certificate else None,
            sha1_thumbprint(self.server_certificate)
            if self.server_certificate and self.policy is not POLICY_NONE
            else None,
        )
        security_prefix = security_writer.to_bytes()

        plain_writer = BinaryWriter()
        _write_sequence_header(plain_writer, self._send_seq.next(), request_id=1)
        plain_writer.write_bytes(encode_service(request))
        plain = plain_writer.to_bytes()

        if self.policy is POLICY_NONE:
            return encode_frame(
                MessageType.OPEN_CHANNEL, "F", security_prefix + plain
            )
        return _protect_asymmetric(
            self.policy,
            security_prefix,
            plain,
            sender_key=self._client_key,
            receiver_key=self.server_certificate.public_key,
            rng=self._rng,
        )

    def handle_open_response(self, frame_body: bytes) -> OpenSecureChannelResponse:
        """Unprotect the OPN response, adopt channel ids, derive keys."""
        reader = BinaryReader(frame_body)
        reader.read_uint32()  # secure channel id (server-assigned, in token too)
        policy_uri = read_string(reader)
        if policy_uri != self.policy.uri:
            raise SecureChannelError(
                f"server answered with policy {policy_uri!r}"
            )
        sender_cert_der = read_bytestring(reader)
        read_bytestring(reader)  # receiver thumbprint (ours)
        protected = reader.read_bytes(reader.remaining)

        if self.policy is POLICY_NONE:
            plain = protected
        else:
            if sender_cert_der is None:
                raise SecureChannelError("server omitted its certificate")
            server_cert = parse_certificate(sender_cert_der)
            plain = _unprotect_asymmetric(
                self.policy,
                protected,
                receiver_key=self._client_key,
                sender_key=server_cert.public_key,
                signed_prefix=_reconstruct_opn_prefix(frame_body, len(protected)),
            )

        plain_reader = BinaryReader(plain)
        plain_reader.read_uint32()  # sequence
        plain_reader.read_uint32()  # request id
        message = decode_service(plain_reader.read_view(plain_reader.remaining))
        if not isinstance(message, OpenSecureChannelResponse):
            raise SecureChannelError(
                f"expected OpenSecureChannelResponse, got {type(message).__name__}"
            )
        self.channel_id = message.security_token.channel_id
        self.token_id = message.security_token.token_id
        if self.policy is not POLICY_NONE:
            server_nonce = message.server_nonce or b""
            client_keys, server_keys = derive_channel_keys(
                self.policy, self.client_nonce, server_nonce
            )
            self._local_keys = client_keys
            self._remote_keys = server_keys
        return message


class ServerSecureChannel(_ChannelBase):
    """Server half of a secure channel."""

    def __init__(
        self,
        policy: SecurityPolicy,
        mode: MessageSecurityMode,
        rng: random.Random,
        channel_id: int,
        server_certificate: Certificate | None = None,
        server_private_key=None,
    ):
        super().__init__(policy, mode)
        self._rng = rng
        self.channel_id = channel_id
        self.server_certificate = server_certificate
        self._server_key = server_private_key
        self.client_certificate: Certificate | None = None
        self.server_nonce = b""
        self._client_nonce = b""
        if policy is not POLICY_NONE and (
            server_certificate is None or server_private_key is None
        ):
            raise SecureChannelError(
                "secure policies require the server certificate and key"
            )

    def adopt_mode(self, mode: MessageSecurityMode) -> None:
        """Adopt the mode the client requested inside the OPN body.

        The requested mode travels *inside* the (possibly encrypted)
        chunk, so the server must construct the channel with a
        provisional mode and switch once the body is decoded.  The
        same policy/mode pairing rules as construction apply; a
        mismatch raises :class:`SecureChannelError` so the engine can
        answer with a truthful ``BadSecurityModeRejected``.
        """
        if self.policy is POLICY_NONE:
            if mode != MessageSecurityMode.NONE:
                raise SecureChannelError(
                    f"mode {mode.name} requires a security policy"
                )
        elif mode not in (
            MessageSecurityMode.SIGN,
            MessageSecurityMode.SIGN_AND_ENCRYPT,
        ):
            raise SecureChannelError(
                f"policy {self.policy.name} requires Sign or "
                f"SignAndEncrypt, got {mode.name}"
            )
        self.mode = mode

    def handle_open_request(self, frame_body: bytes) -> OpenSecureChannelRequest:
        reader = BinaryReader(frame_body)
        reader.read_uint32()  # channel id (0 on first open)
        policy_uri = read_string(reader)
        if policy_uri != self.policy.uri:
            raise SecureChannelError(
                f"client requested policy {policy_uri!r} on a "
                f"{self.policy.name} channel"
            )
        sender_cert_der = read_bytestring(reader)
        read_bytestring(reader)  # our thumbprint
        protected = reader.read_bytes(reader.remaining)

        if self.policy is POLICY_NONE:
            plain = protected
        else:
            if sender_cert_der is None:
                raise SecureChannelError("client omitted its certificate")
            self.client_certificate = parse_certificate(sender_cert_der)
            plain = _unprotect_asymmetric(
                self.policy,
                protected,
                receiver_key=self._server_key,
                sender_key=self.client_certificate.public_key,
                signed_prefix=_reconstruct_opn_prefix(frame_body, len(protected)),
            )

        plain_reader = BinaryReader(plain)
        plain_reader.read_uint32()
        plain_reader.read_uint32()
        message = decode_service(plain_reader.read_view(plain_reader.remaining))
        if not isinstance(message, OpenSecureChannelRequest):
            raise SecureChannelError(
                f"expected OpenSecureChannelRequest, got {type(message).__name__}"
            )
        self._client_nonce = message.client_nonce or b""
        return message

    def build_open_response(self, response: OpenSecureChannelResponse) -> bytes:
        if self.policy is not POLICY_NONE:
            self.server_nonce = self._rng.getrandbits(
                self.policy.nonce_length * 8
            ).to_bytes(self.policy.nonce_length, "big")
            response.server_nonce = self.server_nonce

        self.token_id = response.security_token.token_id

        security_writer = BinaryWriter()
        security_writer.write_uint32(self.channel_id)
        _write_asym_security_header(
            security_writer,
            self.policy,
            self.server_certificate.raw_der if self.server_certificate else None,
            sha1_thumbprint(self.client_certificate)
            if self.client_certificate and self.policy is not POLICY_NONE
            else None,
        )
        security_prefix = security_writer.to_bytes()

        plain_writer = BinaryWriter()
        _write_sequence_header(plain_writer, self._send_seq.next(), request_id=1)
        plain_writer.write_bytes(encode_service(response))
        plain = plain_writer.to_bytes()

        if self.policy is not POLICY_NONE:
            client_keys, server_keys = derive_channel_keys(
                self.policy, self._client_nonce, self.server_nonce
            )
            self._local_keys = server_keys
            self._remote_keys = client_keys
            return _protect_asymmetric(
                self.policy,
                security_prefix,
                plain,
                sender_key=self._server_key,
                receiver_key=self.client_certificate.public_key,
                rng=self._rng,
            )
        return encode_frame(MessageType.OPEN_CHANNEL, "F", security_prefix + plain)


# --- asymmetric chunk protection ---------------------------------------------


def _protect_asymmetric(
    policy: SecurityPolicy,
    security_prefix: bytes,
    plain: bytes,
    sender_key,
    receiver_key,
    rng: random.Random,
) -> bytes:
    sig_len = crypto_suite.asym_signature_length(policy, sender_key)
    plain_block = crypto_suite.asym_plaintext_block_size(policy, receiver_key)
    cipher_block = receiver_key.byte_length

    padding_size = (plain_block - (len(plain) + 1 + sig_len) % plain_block) % plain_block
    padding = bytes([padding_size]) * (padding_size + 1)
    blocks = (len(plain) + len(padding) + sig_len) // plain_block
    encrypted_len = blocks * cipher_block
    frame_size = HEADER_SIZE + len(security_prefix) + encrypted_len
    header = _frame_header_bytes(MessageType.OPEN_CHANNEL, "F", frame_size)

    signature = crypto_suite.asym_sign(
        policy, sender_key, header + security_prefix + plain + padding, rng
    )
    ciphertext = crypto_suite.asym_encrypt(
        policy, receiver_key, plain + padding + signature, rng
    )
    return header + security_prefix + ciphertext


def _unprotect_asymmetric(
    policy: SecurityPolicy,
    protected: bytes,
    receiver_key,
    sender_key,
    signed_prefix: bytes,
) -> bytes:
    """Decrypt and verify an asymmetric chunk.

    ``signed_prefix`` is the reconstructed transport header plus the
    unencrypted security header — the sender's signature covers those
    bytes followed by the plaintext and padding.
    """
    try:
        decrypted = crypto_suite.asym_decrypt(policy, receiver_key, protected)
    except crypto_suite.SuiteError as exc:
        raise SecureChannelError(str(exc)) from exc
    sig_len = sender_key.byte_length
    if len(decrypted) < sig_len + 1:
        raise SecureChannelError("asymmetric chunk too short")
    signature = decrypted[-sig_len:]
    signed_part = decrypted[:-sig_len]
    if not crypto_suite.asym_verify(
        policy, sender_key, signed_prefix + signed_part, signature
    ):
        raise SecureChannelError("bad asymmetric signature")
    padding_size = signed_part[-1]
    if padding_size + 1 > len(signed_part):
        raise SecureChannelError("invalid asymmetric padding")
    return signed_part[: len(signed_part) - padding_size - 1]


def _reconstruct_opn_prefix(frame_body: bytes, protected_len: int) -> bytes:
    """Rebuild the bytes the sender signed before the encrypted part."""
    header = _frame_header_bytes(
        MessageType.OPEN_CHANNEL, "F", HEADER_SIZE + len(frame_body)
    )
    return header + frame_body[: len(frame_body) - protected_len]
