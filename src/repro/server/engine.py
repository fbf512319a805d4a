"""The OPC UA server engine and per-connection state machine.

``UaServer`` holds configuration and shared state (address space,
sessions); ``ServerConnection`` is instantiated per TCP connection and
transforms request bytes into response bytes synchronously — exactly
the shape the network simulator needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.secure.channel import (
    MALFORMED_PEER_BYTES,
    SecureChannelError,
    ServerSecureChannel,
)
from repro.secure.negotiation import sign_nonce_proof, verify_nonce_proof
from repro.secure.policies import POLICY_NONE, SecurityPolicy, policy_by_uri
from repro.server.access import Role
from repro.server.addressspace import AddressSpace
from repro.server.auth import AuthenticationError, Authenticator
from repro.server.endpoints import EndpointConfig, build_endpoint_descriptions
from repro.server.nodes import MethodNode, VariableNode
from repro.server.service_router import handler_for, requires_session
from repro.server.session import Session, SessionManager
from repro.transport.connection import FrameReader, encode_frame
from repro.transport.messages import (
    AcknowledgeMessage,
    ErrorMessage,
    HelloMessage,
    MessageType,
    TransportError,
)
from repro.uabin.builtin import read_string
from repro.uabin.enums import (
    ApplicationType,
    AttributeId,
    BrowseDirection,
    MessageSecurityMode,
    UserTokenType,
)
from repro.uabin.nodeid import ExpandedNodeId
from repro.uabin.registry import decode_extension_object
from repro.uabin.statuscodes import StatusCode, StatusCodes
from repro.uabin.structs import DecodingError, ResponseHeader
from repro.uabin.types_attribute import ReadResponse
from repro.uabin.types_channel import (
    ChannelSecurityToken,
    OpenSecureChannelResponse,
)
from repro.uabin.types_common import (
    ApplicationDescription,
    ServiceFault,
    SignatureData,
)
from repro.uabin.types_discovery import (
    FindServersResponse,
    GetEndpointsResponse,
)
from repro.uabin.types_session import (
    ActivateSessionResponse,
    CloseSessionResponse,
    CreateSessionResponse,
)
from repro.uabin.types_view import (
    BrowseResponse,
    BrowseResult,
    ReferenceDescription,
)
from repro.uabin.variant import DataValue, Variant, VariantType
from repro.util.binary import BinaryReader
from repro.x509.certificate import Certificate


@dataclass
class ServerBehavior:
    """Misbehaviour knobs the deployment generator uses.

    * ``reject_untrusted_client_certs`` models the strict servers that
      abort secure-channel establishment when presented with the
      scanner's self-signed certificate (80 hosts in Table 2).
    * ``faulty_session_config`` models servers that advertise
      anonymous access but reject every session activation due to a
      faulty or incomplete endpoint configuration (the anonymous hosts
      counted under "Authentication" rejections in Table 2).
    * ``fault_data_services`` models honeypot-like responders: the
      session dance completes, but every session-bound service call
      (Browse and Read) faults — the host advertises everything and
      serves nothing.
    """

    reject_untrusted_client_certs: bool = False
    faulty_session_config: bool = False
    fault_data_services: bool = False


@dataclass
class ServerConfig:
    """Everything that defines one simulated OPC UA deployment."""

    application_uri: str
    application_name: str
    endpoint_url: str
    product_uri: str | None = None
    application_type: ApplicationType = ApplicationType.SERVER
    certificate: Certificate | None = None
    private_key: object = None
    endpoint_configs: list[EndpointConfig] = field(
        default_factory=lambda: [
            EndpointConfig(MessageSecurityMode.NONE, POLICY_NONE)
        ]
    )
    token_types: list[UserTokenType] = field(
        default_factory=lambda: [UserTokenType.ANONYMOUS]
    )
    authenticator: Authenticator | None = None
    address_space: AddressSpace | None = None
    behavior: ServerBehavior = field(default_factory=ServerBehavior)
    software_version: str = "1.0.0"
    # Discovery servers announce endpoints hosted elsewhere.
    announced_endpoints: list = field(default_factory=list)

    def __post_init__(self):
        if self.authenticator is None:
            self.authenticator = Authenticator(
                allowed_token_types=set(self.token_types)
            )
        if self.address_space is None:
            self.address_space = AddressSpace()
        self.address_space.set_software_version(self.software_version)

    @property
    def is_discovery_server(self) -> bool:
        return self.application_type == ApplicationType.DISCOVERY_SERVER

    def supports(self, mode: MessageSecurityMode, policy: SecurityPolicy) -> bool:
        return any(
            c.security_mode == mode and c.security_policy is policy
            for c in self.endpoint_configs
        )

    def policies_offered(self) -> set[SecurityPolicy]:
        return {c.security_policy for c in self.endpoint_configs}


class UaServer:
    """One simulated OPC UA server instance."""

    def __init__(self, config: ServerConfig, rng: random.Random):
        self.config = config
        self._rng = rng
        self.sessions = SessionManager(rng)
        self._next_channel_id = 1

    # --- connection factory ---------------------------------------------------

    def new_connection(self) -> "ServerConnection":
        return ServerConnection(self)

    def reseed(self, rng: random.Random) -> None:
        """Re-key per-connection randomness (nonces, session tokens).

        The study timeline calls this when assembling each sweep's
        network, making every sweep's server responses a pure function
        of the sweep index rather than of how many connections earlier
        sweeps happened to open — the property that lets process-pool
        scan workers (whose state changes never propagate back) stay
        bit-identical to serial runs.
        """
        self._rng = rng
        self.sessions = SessionManager(rng)
        self._next_channel_id = 1

    def allocate_channel_id(self) -> int:
        channel_id = self._next_channel_id
        self._next_channel_id += 1
        return channel_id

    # --- endpoint helpers ------------------------------------------------------

    def endpoint_descriptions(self):
        if self.config.announced_endpoints:
            return list(self.config.announced_endpoints)
        return build_endpoint_descriptions(
            endpoint_url=self.config.endpoint_url,
            application_uri=self.config.application_uri,
            product_uri=self.config.product_uri,
            application_name=self.config.application_name,
            application_type=self.config.application_type,
            endpoint_configs=self.config.endpoint_configs,
            token_types=self.config.token_types,
            certificate_der=(
                self.config.certificate.raw_der if self.config.certificate else None
            ),
        )

    # --- service handlers -------------------------------------------------------

    def handle_get_endpoints(self, session, request, channel):
        return GetEndpointsResponse(
            response_header=self._ok_header(request),
            endpoints=self.endpoint_descriptions(),
        )

    def handle_find_servers(self, session, request, channel):
        """FindServers: our own description first, then announced ones.

        The self-description is what lets the scanner attribute the
        responding application (ApplicationURI clustering, paper §4)
        and recognize discovery servers by their ApplicationType.
        """
        from repro.uabin.builtin import LocalizedText

        own = ApplicationDescription(
            application_uri=self.config.application_uri,
            product_uri=self.config.product_uri,
            application_name=LocalizedText(self.config.application_name),
            application_type=self.config.application_type,
            discovery_urls=[self.config.endpoint_url],
        )
        unique = [own]
        seen = {own.application_uri}
        for endpoint in self.endpoint_descriptions():
            description = endpoint.server
            if description.application_uri not in seen:
                seen.add(description.application_uri)
                unique.append(description)
        return FindServersResponse(
            response_header=self._ok_header(request), servers=unique
        )

    def handle_create_session(self, session, request, channel):
        if channel.policy is not POLICY_NONE:
            # The application certificate in the request must be the
            # one that opened the channel (OPC 10000-4 §5.6.2): a
            # mismatch means the session would not be bound to the
            # keys that protect it.
            channel_cert = channel.client_certificate
            if channel_cert is not None and request.client_certificate != (
                channel_cert.raw_der
            ):
                raise _Fault(StatusCodes.BadCertificateInvalid)
        new_session = self.sessions.create(
            name=request.session_name or "",
            timeout_ms=request.requested_session_timeout,
            client_nonce=request.client_nonce,
            security_policy_uri=channel.policy.uri,
            security_mode=int(channel.mode),
        )
        server_signature = SignatureData()
        if channel.policy is not POLICY_NONE and request.client_certificate:
            signed = request.client_certificate + (request.client_nonce or b"")
            server_signature = sign_nonce_proof(
                channel.policy, self.config.private_key, signed, self._rng
            )
        return CreateSessionResponse(
            response_header=self._ok_header(request),
            session_id=new_session.session_id,
            authentication_token=new_session.authentication_token,
            revised_session_timeout=new_session.timeout_ms,
            server_nonce=new_session.server_nonce,
            server_certificate=(
                self.config.certificate.raw_der if self.config.certificate else None
            ),
            server_endpoints=self.endpoint_descriptions(),
            server_signature=server_signature,
        )

    def handle_activate_session(self, session, request, channel):
        target = self.sessions.lookup(request.request_header.authentication_token)
        if target is None:
            raise _Fault(StatusCodes.BadSessionIdInvalid)
        if (
            target.security_policy_uri != channel.policy.uri
            or target.security_mode != int(channel.mode)
        ):
            # Activation must arrive over a channel with the same
            # security the session was created under.
            raise _Fault(StatusCodes.BadSecurityChecksFailed)
        if self.config.behavior.faulty_session_config:
            raise _Fault(StatusCodes.BadIdentityTokenRejected)
        if channel.policy is not POLICY_NONE:
            self._verify_client_signature(request, target, channel)
        try:
            token = decode_extension_object(request.user_identity_token)
        except DecodingError as exc:
            raise _Fault(StatusCodes.BadIdentityTokenInvalid) from exc
        self._check_endpoint_token_override(token, channel)
        try:
            user = self.config.authenticator.authenticate(token)
        except AuthenticationError as exc:
            raise _Fault(exc.status) from exc
        self.sessions.activate(target, user)
        return ActivateSessionResponse(
            response_header=self._ok_header(request),
            server_nonce=target.server_nonce,
            results=[StatusCodes.Good],
        )

    def _check_endpoint_token_override(self, token, channel) -> None:
        """Enforce per-endpoint token restrictions for the active channel."""
        from repro.uabin.types_session import (
            AnonymousIdentityToken,
            IssuedIdentityToken,
            UserNameIdentityToken,
            X509IdentityToken,
        )

        token_type = {
            type(None): UserTokenType.ANONYMOUS,
            AnonymousIdentityToken: UserTokenType.ANONYMOUS,
            UserNameIdentityToken: UserTokenType.USERNAME,
            X509IdentityToken: UserTokenType.CERTIFICATE,
            IssuedIdentityToken: UserTokenType.ISSUED_TOKEN,
        }.get(type(token))
        if token_type is None:
            return
        for config in self.config.endpoint_configs:
            if (
                config.security_mode == channel.mode
                and config.security_policy is channel.policy
                and config.token_types is not None
                and token_type not in config.token_types
            ):
                raise _Fault(StatusCodes.BadIdentityTokenRejected)

    def _verify_client_signature(self, request, session: Session, channel) -> None:
        client_cert = channel.client_certificate
        if client_cert is None:
            raise _Fault(StatusCodes.BadSecurityChecksFailed)
        signed = (
            (self.config.certificate.raw_der if self.config.certificate else b"")
            + session.server_nonce
        )
        if not verify_nonce_proof(
            channel.policy, client_cert, signed, request.client_signature
        ):
            raise _Fault(StatusCodes.BadApplicationSignatureInvalid)

    def handle_close_session(self, session, request, channel):
        target = self.sessions.lookup(request.request_header.authentication_token)
        if target is not None:
            self.sessions.close(target)
        return CloseSessionResponse(response_header=self._ok_header(request))

    def handle_browse(self, session, request, channel):
        results = []
        for description in request.nodes_to_browse or []:
            results.append(self._browse_one(description))
        return BrowseResponse(
            response_header=self._ok_header(request), results=results
        )

    def _browse_one(self, description) -> BrowseResult:
        space = self.config.address_space
        node = space.get_or_none(description.node_id)
        if node is None:
            return BrowseResult(status_code=StatusCodes.BadNodeIdUnknown)
        references = []
        for reference in node.references:
            if description.browse_direction == BrowseDirection.FORWARD and (
                not reference.is_forward
            ):
                continue
            if description.browse_direction == BrowseDirection.INVERSE and (
                reference.is_forward
            ):
                continue
            target = space.get_or_none(reference.target)
            if target is None:
                continue
            references.append(
                ReferenceDescription(
                    reference_type_id=reference.reference_type,
                    is_forward=reference.is_forward,
                    node_id=ExpandedNodeId(target.node_id),
                    browse_name=target.browse_name,
                    display_name=target.display_name,
                    node_class=target.node_class,
                    type_definition=ExpandedNodeId(target.type_definition),
                )
            )
        return BrowseResult(status_code=StatusCodes.Good, references=references)

    def handle_read(self, session, request, channel):
        role = session.role
        results = [
            self._read_attribute(node_read, role)
            for node_read in request.nodes_to_read or []
        ]
        return ReadResponse(
            response_header=self._ok_header(request), results=results
        )

    def _read_attribute(self, node_read, role: Role) -> DataValue:
        space = self.config.address_space
        node = space.get_or_none(node_read.node_id)
        if node is None:
            return DataValue(status=StatusCodes.BadNodeIdUnknown)
        attribute = node_read.attribute_id
        if attribute == AttributeId.VALUE:
            if not isinstance(node, VariableNode):
                return DataValue(status=StatusCodes.BadAttributeIdInvalid)
            if not node.permissions.allows_read(role):
                return DataValue(status=StatusCodes.BadUserAccessDenied)
            return DataValue(value=node.value, status=StatusCodes.Good)
        if attribute == AttributeId.NODE_CLASS:
            return DataValue(
                value=Variant(int(node.node_class), VariantType.INT32),
                status=StatusCodes.Good,
            )
        if attribute == AttributeId.BROWSE_NAME:
            return DataValue(
                value=Variant(node.browse_name, VariantType.QUALIFIEDNAME),
                status=StatusCodes.Good,
            )
        if attribute == AttributeId.DISPLAY_NAME:
            return DataValue(
                value=Variant(node.display_name, VariantType.LOCALIZEDTEXT),
                status=StatusCodes.Good,
            )
        if attribute == AttributeId.ACCESS_LEVEL:
            if not isinstance(node, VariableNode):
                return DataValue(status=StatusCodes.BadAttributeIdInvalid)
            return DataValue(
                value=Variant(node.access_level(), VariantType.BYTE),
                status=StatusCodes.Good,
            )
        if attribute == AttributeId.USER_ACCESS_LEVEL:
            if not isinstance(node, VariableNode):
                return DataValue(status=StatusCodes.BadAttributeIdInvalid)
            return DataValue(
                value=Variant(node.user_access_level(role), VariantType.BYTE),
                status=StatusCodes.Good,
            )
        if attribute == AttributeId.EXECUTABLE:
            if not isinstance(node, MethodNode):
                return DataValue(status=StatusCodes.BadAttributeIdInvalid)
            return DataValue(
                value=Variant(node.executable(), VariantType.BOOLEAN),
                status=StatusCodes.Good,
            )
        if attribute == AttributeId.USER_EXECUTABLE:
            if not isinstance(node, MethodNode):
                return DataValue(status=StatusCodes.BadAttributeIdInvalid)
            return DataValue(
                value=Variant(node.user_executable(role), VariantType.BOOLEAN),
                status=StatusCodes.Good,
            )
        return DataValue(status=StatusCodes.BadAttributeIdInvalid)

    # --- helpers ------------------------------------------------------------

    @staticmethod
    def _ok_header(request) -> ResponseHeader:
        return ResponseHeader(
            request_handle=request.request_header.request_handle,
            service_result=StatusCodes.Good,
        )


class _Fault(Exception):
    """Internal: converted to a ServiceFault response."""

    def __init__(self, status: StatusCode):
        super().__init__(status.name)
        self.status = status


class ServerConnection:
    """Per-connection byte-level state machine."""

    def __init__(self, server: UaServer):
        self._server = server
        self._reader = FrameReader()
        self._hello_done = False
        self._channel: ServerSecureChannel | None = None
        self._discovery_only = False
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def receive(self, data: bytes) -> bytes:
        """Feed request bytes; returns response bytes (possibly empty)."""
        if self._closed:
            return b""
        self._reader.feed(data)
        out = bytearray()
        try:
            for header, body in self._reader.drain_frames():
                out.extend(self._handle_frame(header, body))
                if self._closed:
                    break
        except TransportError as exc:
            out.extend(self._error_frame(StatusCodes.BadTcpMessageTypeInvalid, str(exc)))
            self._closed = True
        except MALFORMED_PEER_BYTES as exc:
            out.extend(self._error_frame(StatusCodes.BadDecodingError, str(exc)))
            self._closed = True
        return bytes(out)

    def _handle_frame(self, header, body: bytes) -> bytes:
        if header.message_type == MessageType.HELLO:
            return self._handle_hello(body)
        if not self._hello_done:
            self._closed = True
            return self._error_frame(
                StatusCodes.BadTcpMessageTypeInvalid, "expected HEL first"
            )
        if (
            header.message_type
            in (MessageType.OPEN_CHANNEL, MessageType.MESSAGE)
            and header.chunk_type != "F"
        ):
            # Every message this stack exchanges is one final chunk; a
            # C chunk holds only part of a request and an A chunk
            # aborts one, so neither may be decoded as a whole request.
            self._closed = True
            return self._error_frame(
                StatusCodes.BadTcpMessageTypeInvalid,
                f"{header.message_type.value} request in a non-final "
                f"chunk ({header.chunk_type!r}); multi-chunk messages "
                "are not supported",
            )
        if header.message_type == MessageType.OPEN_CHANNEL:
            return self._handle_open(body)
        if header.message_type == MessageType.MESSAGE:
            return self._handle_message(body)
        if header.message_type == MessageType.CLOSE_CHANNEL:
            self._closed = True
            return b""
        self._closed = True
        return self._error_frame(
            StatusCodes.BadTcpMessageTypeInvalid,
            f"unexpected {header.message_type.value}",
        )

    def _handle_hello(self, body: bytes) -> bytes:
        try:
            HelloMessage.decode_body(body)
        except Exception:
            self._closed = True
            return self._error_frame(
                StatusCodes.BadTcpMessageTypeInvalid, "malformed HEL"
            )
        self._hello_done = True
        return encode_frame(
            MessageType.ACKNOWLEDGE, "F", AcknowledgeMessage().encode_body()
        )

    def _handle_open(self, body: bytes) -> bytes:
        # Peek the security policy URI from the asymmetric header.
        reader = BinaryReader(body)
        reader.read_uint32()
        try:
            policy = policy_by_uri(read_string(reader))
        except KeyError as exc:
            self._closed = True
            return self._error_frame(StatusCodes.BadSecurityPolicyRejected, str(exc))

        config = self._server.config
        # Servers must always accept a None-policy channel for the
        # discovery services (GetEndpoints/FindServers), even when no
        # None endpoint is offered; sessions on such a channel are
        # rejected in _dispatch.  This mirrors real stacks and is what
        # let the paper retrieve endpoint lists from *every* server.
        discovery_only = (
            policy is POLICY_NONE and policy not in config.policies_offered()
        )
        if policy is not POLICY_NONE and policy not in config.policies_offered():
            self._closed = True
            return self._error_frame(
                StatusCodes.BadSecurityPolicyRejected,
                f"policy {policy.name} not offered",
            )
        if (
            policy is not POLICY_NONE
            and config.behavior.reject_untrusted_client_certs
        ):
            # Strict server: reject the scanner's self-signed certificate.
            self._closed = True
            return self._error_frame(
                StatusCodes.BadSecurityChecksFailed,
                "client certificate not trusted",
            )

        provisional_mode = (
            MessageSecurityMode.NONE
            if policy is POLICY_NONE
            else MessageSecurityMode.SIGN
        )
        channel = ServerSecureChannel(
            policy,
            provisional_mode,
            self._server._rng,
            channel_id=self._server.allocate_channel_id(),
            server_certificate=config.certificate,
            server_private_key=config.private_key,
        )
        try:
            request = channel.handle_open_request(body)
        except SecureChannelError as exc:
            self._closed = True
            return self._error_frame(StatusCodes.BadSecurityChecksFailed, str(exc))

        requested_mode = request.security_mode
        if not discovery_only and not config.supports(requested_mode, policy):
            self._closed = True
            return self._error_frame(
                StatusCodes.BadSecurityModeRejected,
                f"mode {requested_mode.name} not offered with {policy.name}",
            )
        try:
            channel.adopt_mode(requested_mode)
        except SecureChannelError as exc:
            self._closed = True
            return self._error_frame(StatusCodes.BadSecurityModeRejected, str(exc))

        response = OpenSecureChannelResponse(
            response_header=ResponseHeader(
                request_handle=request.request_header.request_handle,
                service_result=StatusCodes.Good,
            ),
            security_token=ChannelSecurityToken(
                channel_id=channel.channel_id,
                token_id=1,
                revised_lifetime=request.requested_lifetime,
            ),
        )
        frame = channel.build_open_response(response)
        self._channel = channel
        self._discovery_only = discovery_only
        return frame

    def _handle_message(self, body: bytes) -> bytes:
        if self._channel is None:
            self._closed = True
            return self._error_frame(
                StatusCodes.BadTcpSecureChannelUnknown, "no secure channel"
            )
        try:
            request, request_id = self._channel.decode_message(body)
        except SecureChannelError as exc:
            self._closed = True
            return self._error_frame(StatusCodes.BadSecurityChecksFailed, str(exc))
        response = self._dispatch(request)
        return self._channel.encode_message(response, request_id)

    def _dispatch(self, request):
        server = self._server
        handler = handler_for(server, request)
        if handler is None:
            return _fault_response(request, StatusCodes.BadServiceUnsupported)
        from repro.uabin.types_session import CreateSessionRequest

        if isinstance(request, CreateSessionRequest):
            if server.config.is_discovery_server:
                # A bare LDS implements only the discovery service set.
                return _fault_response(request, StatusCodes.BadServiceUnsupported)
            if self._discovery_only:
                return _fault_response(
                    request, StatusCodes.BadSecurityModeInsufficient
                )
        session = None
        if requires_session(request):
            session = server.sessions.lookup(
                request.request_header.authentication_token
            )
            if session is None:
                return _fault_response(request, StatusCodes.BadSessionIdInvalid)
            if not session.activated:
                return _fault_response(request, StatusCodes.BadSessionNotActivated)
            if server.config.behavior.fault_data_services:
                # Honeypot knob: sessions complete, data services never
                # do — CloseSession is sessionless here, so the client
                # can still part cleanly.
                return _fault_response(
                    request, StatusCodes.BadResourceUnavailable
                )
        try:
            return handler(session, request, self._channel)
        except _Fault as fault:
            return _fault_response(request, fault.status)
        except AuthenticationError as exc:
            return _fault_response(request, exc.status)

    def _error_frame(self, status: StatusCode, reason: str) -> bytes:
        message = ErrorMessage(error_code=status.value, reason=reason)
        return encode_frame(MessageType.ERROR, "F", message.encode_body())


def _fault_response(request, status: StatusCode) -> ServiceFault:
    return ServiceFault(
        response_header=ResponseHeader(
            request_handle=request.request_header.request_handle,
            service_result=status,
        )
    )
