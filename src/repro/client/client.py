"""The UaClient: protocol driver over an abstract byte stream.

The stream is anything satisfying the
:class:`~repro.transport.socket_io.Transport` seam::

    stream.write(data: bytes) -> None   # send request bytes
    stream.read() -> bytes              # next slice the peer produced
                                        # (b"" == connection closed)

The in-memory loopback used in tests, the network simulator's
sockets, and the live socket transports all provide it.  ``read`` may
return *partial* frames (live TCP segments arbitrarily); the client
reassembles via :class:`~repro.transport.connection.FrameReader` and
keeps reading until a frame completes or the peer goes silent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.client.errors import (
    ConnectionClosedError,
    ServiceFaultError,
    TransportRejectedError,
    UaClientError,
)
from repro.secure.channel import MALFORMED_PEER_BYTES, ClientSecureChannel
from repro.secure.negotiation import ChannelSecurity
from repro.transport.connection import FrameReader, encode_frame
from repro.transport.messages import (
    AcknowledgeMessage,
    ErrorMessage,
    HelloMessage,
    MessageType,
)
from repro.uabin.enums import (
    ApplicationType,
    AttributeId,
    SecurityTokenRequestType,
)
from repro.uabin.builtin import LocalizedText
from repro.uabin.nodeid import NodeId
from repro.uabin.registry import make_extension_object
from repro.uabin.statuscodes import lookup_status
from repro.uabin.structs import RequestHeader
from repro.uabin.types_attribute import ReadRequest, ReadValueId
from repro.uabin.types_channel import (
    CloseSecureChannelRequest,
    OpenSecureChannelRequest,
)
from repro.uabin.types_common import ApplicationDescription, SignatureData
from repro.uabin.types_discovery import FindServersRequest, GetEndpointsRequest
from repro.uabin.types_method import CallMethodRequest, CallRequest, ServiceFault
from repro.uabin.types_session import (
    ActivateSessionRequest,
    AnonymousIdentityToken,
    CloseSessionRequest,
    CreateSessionRequest,
    UserNameIdentityToken,
)
from repro.uabin.types_view import BrowseDescription, BrowseRequest
from repro.x509.certificate import Certificate


@dataclass(frozen=True)
class ClientIdentity:
    """The client application's identity (certificate + key)."""

    application_uri: str
    application_name: str
    certificate: Certificate | None = None
    private_key: object = None

    def description(self) -> ApplicationDescription:
        return ApplicationDescription(
            application_uri=self.application_uri,
            application_name=LocalizedText(self.application_name),
            application_type=ApplicationType.CLIENT,
        )


class UaClient:
    """Synchronous OPC UA client over a duplex byte stream."""

    def __init__(
        self,
        stream,
        identity: ClientIdentity,
        rng: random.Random,
        endpoint_url: str = "opc.tcp://unknown:4840/",
    ):
        self._stream = stream
        self._identity = identity
        self._rng = rng
        self._endpoint_url = endpoint_url
        self._frames = FrameReader()
        self._channel: ClientSecureChannel | None = None
        self._security: ChannelSecurity = ChannelSecurity.none()
        self._client_nonce: bytes = b""
        self._request_id = 0
        self._request_handle = 0
        self._auth_token = NodeId()
        self._server_nonce: bytes = b""
        self._server_certificate_der: bytes | None = None
        self.connected = False

    @property
    def identity(self) -> ClientIdentity:
        """The client identity (for building :class:`ChannelSecurity`)."""
        return self._identity

    # --- low-level exchange ----------------------------------------------------

    def _next_request_id(self) -> int:
        self._request_id += 1
        return self._request_id

    def _request_header(self, timeout_ms: int = 10_000) -> RequestHeader:
        self._request_handle += 1
        return RequestHeader(
            authentication_token=self._auth_token,
            request_handle=self._request_handle,
            timeout_hint=timeout_ms,
        )

    def _read_frame(self):
        # Keep reading until one complete frame is buffered: a live
        # peer may deliver a response across several TCP segments,
        # and a read returning b"" means the connection is gone.
        while True:
            frame = self._frames.next_frame()
            if frame is not None:
                return frame
            data = self._stream.read()
            if not data:
                if self._frames.buffered:
                    raise ConnectionClosedError(
                        "connection closed mid-frame"
                    )
                raise ConnectionClosedError("no response from server")
            self._frames.feed(data)

    @staticmethod
    def _decode(decode, body):
        """Run ``decode(body)`` on a reply; malformed bytes raise
        :class:`UaClientError` (category ``protocol``) with the
        decoder's own message."""
        try:
            return decode(body)
        except MALFORMED_PEER_BYTES as exc:
            raise UaClientError(str(exc)) from exc

    def _expect(self, expected_type: MessageType):
        header, body = self._read_frame()
        if header.message_type == MessageType.ERROR:
            error = self._decode(ErrorMessage.decode_body, body)
            raise TransportRejectedError(
                lookup_status(error.error_code), error.reason
            )
        if header.message_type != expected_type:
            raise UaClientError(
                f"expected {expected_type.value}, got {header.message_type.value}"
            )
        return header, body

    # --- connection establishment -----------------------------------------------

    def hello(self) -> AcknowledgeMessage:
        """Perform the HEL/ACK transport handshake."""
        hello = HelloMessage(endpoint_url=self._endpoint_url)
        self._stream.write(
            encode_frame(MessageType.HELLO, "F", hello.encode_body())
        )
        _, body = self._expect(MessageType.ACKNOWLEDGE)
        self.connected = True
        return self._decode(AcknowledgeMessage.decode_body, body)

    def open_secure_channel(self, security: ChannelSecurity | None = None):
        """Open a secure channel with the negotiated ``security``.

        ``security`` is the :class:`ChannelSecurity` to complete the
        channel at — built per advertised endpoint via
        :meth:`ChannelSecurity.for_endpoint` — or ``None`` for the
        plain None-policy discovery channel.
        """
        if not self.connected:
            raise UaClientError("hello() must run before open_secure_channel()")
        if security is None:
            security = ChannelSecurity.none()
        if security.is_secure:
            self._server_certificate_der = security.peer_certificate_der
        channel = security.client_channel(self._rng)
        request = OpenSecureChannelRequest(
            request_header=self._request_header(),
            request_type=SecurityTokenRequestType.ISSUE,
            security_mode=security.mode,
        )
        self._stream.write(channel.build_open_request(request))
        _, body = self._expect(MessageType.OPEN_CHANNEL)
        response = self._decode(channel.handle_open_response, body)
        self._channel = channel
        self._security = security
        return response

    # --- service invocation -------------------------------------------------------

    def _invoke(self, request):
        if self._channel is None:
            raise UaClientError("no secure channel")
        request_id = self._next_request_id()
        self._stream.write(self._channel.encode_message(request, request_id))
        _, body = self._expect(MessageType.MESSAGE)
        response, response_id = self._decode(
            self._channel.decode_message, body
        )
        if response_id != request_id:
            raise UaClientError(
                f"response id {response_id} does not match request {request_id}"
            )
        if isinstance(response, ServiceFault):
            raise ServiceFaultError(response.response_header.service_result)
        # Every service pairs ``XRequest`` with ``XResponse``; a reply of
        # another type is the peer's fault, however well it decoded.
        expected = type(request).__name__.replace("Request", "Response")
        if type(response).__name__ != expected:
            raise UaClientError(
                f"expected {expected}, got {type(response).__name__}"
            )
        return response

    # --- services ------------------------------------------------------------------

    def get_endpoints(self):
        request = GetEndpointsRequest(
            request_header=self._request_header(),
            endpoint_url=self._endpoint_url,
        )
        return self._invoke(request).endpoints or []

    def find_servers(self):
        """FindServers: application descriptions known to the peer.

        The first entry is the responding application's own
        description (the scanner uses it for manufacturer attribution
        and discovery-server detection).
        """
        request = FindServersRequest(
            request_header=self._request_header(),
            endpoint_url=self._endpoint_url,
        )
        return self._invoke(request).servers or []

    def create_session(self, session_name: str = "repro-session"):
        client_nonce = self._rng.getrandbits(256).to_bytes(32, "big")
        self._client_nonce = client_nonce
        request = CreateSessionRequest(
            request_header=self._request_header(),
            client_description=self._identity.description(),
            endpoint_url=self._endpoint_url,
            session_name=session_name,
            client_nonce=client_nonce,
            client_certificate=(
                self._identity.certificate.raw_der
                if self._identity.certificate
                else None
            ),
        )
        response = self._invoke(request)
        if self._security.is_secure and self._identity.certificate is not None:
            # The server proves possession of its certificate's key by
            # signing our certificate + nonce (OPC 10000-4 §5.6.2).
            signed = self._identity.certificate.raw_der + client_nonce
            if not self._security.verify_peer_proof(
                signed, response.server_signature
            ):
                raise UaClientError("server signature proof failed")
        self._auth_token = response.authentication_token
        self._server_nonce = response.server_nonce or b""
        if response.server_certificate:
            self._server_certificate_der = response.server_certificate
        return response

    def activate_session(self, identity_token=None):
        """Activate with an identity token (default: anonymous)."""
        token = identity_token or AnonymousIdentityToken(policy_id="anonymous")
        client_signature = SignatureData()
        if self._security.is_secure:
            signed = (self._server_certificate_der or b"") + self._server_nonce
            client_signature = self._security.sign_proof(signed, self._rng)
        request = ActivateSessionRequest(
            request_header=self._request_header(),
            client_signature=client_signature,
            user_identity_token=make_extension_object(token),
        )
        response = self._invoke(request)
        self._server_nonce = response.server_nonce or self._server_nonce
        return response

    def activate_session_username(self, user_name: str, password: str):
        token = UserNameIdentityToken(
            policy_id="username",
            user_name=user_name,
            password=password.encode("utf-8"),
        )
        return self.activate_session(token)

    def close_session(self):
        request = CloseSessionRequest(request_header=self._request_header())
        response = self._invoke(request)
        self._auth_token = NodeId()
        return response

    def browse(self, node_ids, max_references: int = 0):
        request = BrowseRequest(
            request_header=self._request_header(),
            requested_max_references_per_node=max_references,
            nodes_to_browse=[
                BrowseDescription(node_id=node_id) for node_id in node_ids
            ],
        )
        return self._invoke(request).results or []

    def read_attributes(self, pairs):
        """Read (node_id, attribute_id) pairs; returns DataValues."""
        request = ReadRequest(
            request_header=self._request_header(),
            nodes_to_read=[
                ReadValueId(node_id=node_id, attribute_id=int(attribute))
                for node_id, attribute in pairs
            ],
        )
        return self._invoke(request).results or []

    def read_values(self, node_ids):
        return self.read_attributes(
            [(node_id, AttributeId.VALUE) for node_id in node_ids]
        )

    def translate_browse_path(self, starting_node: NodeId, *browse_names):
        """Resolve a browse path of (namespace, name) pairs to a NodeId.

        Returns the target NodeId, or None when the path cannot be
        resolved.
        """
        from repro.uabin.builtin import QualifiedName
        from repro.uabin.types_query import (
            BrowsePath,
            RelativePath,
            RelativePathElement,
            TranslateBrowsePathsRequest,
        )

        elements = [
            RelativePathElement(
                target_name=QualifiedName(namespace, name)
            )
            for namespace, name in browse_names
        ]
        request = TranslateBrowsePathsRequest(
            request_header=self._request_header(),
            browse_paths=[
                BrowsePath(
                    starting_node=starting_node,
                    relative_path=RelativePath(elements=elements),
                )
            ],
        )
        results = self._invoke(request).results or []
        if not results or not results[0].status_code.is_good:
            return None
        targets = results[0].targets or []
        return targets[0].target_id.node_id if targets else None

    def register_server(self, registered_server):
        """Announce a server to a discovery server (RegisterServer)."""
        from repro.uabin.types_query import RegisterServerRequest

        request = RegisterServerRequest(
            request_header=self._request_header(), server=registered_server
        )
        return self._invoke(request)

    def call_method(self, object_id: NodeId, method_id: NodeId, arguments=None):
        request = CallRequest(
            request_header=self._request_header(),
            methods_to_call=[
                CallMethodRequest(
                    object_id=object_id,
                    method_id=method_id,
                    input_arguments=arguments or [],
                )
            ],
        )
        results = self._invoke(request).results or []
        return results[0] if results else None

    def close(self):
        """Send CloseSecureChannel; the server does not respond."""
        if self._channel is None:
            return
        try:
            request = CloseSecureChannelRequest(
                request_header=self._request_header()
            )
            self._stream.write(
                self._channel.encode_message(
                    request, self._next_request_id(), MessageType.CLOSE_CHANNEL
                )
            )
        finally:
            self._channel = None
            self.connected = False
