"""Round-trip tests for every service structure."""

from datetime import datetime, timezone

import pytest

from repro.uabin import registry
from repro.uabin.builtin import LocalizedText, QualifiedName
from repro.uabin.enums import (
    ApplicationType,
    BrowseDirection,
    MessageSecurityMode,
    NodeClass,
    SecurityTokenRequestType,
    UserTokenType,
)
from repro.uabin.nodeid import ExpandedNodeId, NodeId
from repro.uabin.statuscodes import StatusCodes
from repro.uabin.structs import (
    DecodingError,
    ExtensionObject,
    RequestHeader,
    ResponseHeader,
)
from repro.uabin.types_attribute import (
    ReadRequest,
    ReadResponse,
    ReadValueId,
)
from repro.uabin.types_channel import (
    ChannelSecurityToken,
    CloseSecureChannelRequest,
    OpenSecureChannelRequest,
    OpenSecureChannelResponse,
)
from repro.uabin.types_common import (
    ApplicationDescription,
    EndpointDescription,
    ServiceFault,
    UserTokenPolicy,
)
from repro.uabin.types_discovery import (
    FindServersRequest,
    FindServersResponse,
    GetEndpointsRequest,
    GetEndpointsResponse,
)
from repro.uabin.types_session import (
    ActivateSessionRequest,
    ActivateSessionResponse,
    AnonymousIdentityToken,
    CloseSessionRequest,
    CreateSessionRequest,
    CreateSessionResponse,
    IssuedIdentityToken,
    UserNameIdentityToken,
    X509IdentityToken,
)
from repro.uabin.types_view import (
    BrowseDescription,
    BrowseRequest,
    BrowseResponse,
    BrowseResult,
    ReferenceDescription,
)
from repro.uabin.variant import DataValue, Variant, VariantType

NOW = datetime(2020, 8, 30, 12, 0, 0, tzinfo=timezone.utc)


def round_trip(value):
    out = type(value).from_bytes(value.to_bytes())
    assert out == value
    return out


def make_endpoint():
    return EndpointDescription(
        endpoint_url="opc.tcp://10.0.0.1:4840/",
        server=ApplicationDescription(
            application_uri="urn:bachmann:m1/1",
            product_uri="urn:bachmann:m1",
            application_name=LocalizedText("M1 controller"),
            application_type=ApplicationType.SERVER,
            discovery_urls=["opc.tcp://10.0.0.1:4840/"],
        ),
        server_certificate=b"\x30\x82\x01\x00",
        security_mode=MessageSecurityMode.SIGN_AND_ENCRYPT,
        security_policy_uri="http://opcfoundation.org/UA/SecurityPolicy#Basic256Sha256",
        user_identity_tokens=[
            UserTokenPolicy(policy_id="anon", token_type=UserTokenType.ANONYMOUS),
            UserTokenPolicy(policy_id="user", token_type=UserTokenType.USERNAME),
        ],
        transport_profile_uri="http://opcfoundation.org/UA-Profile/Transport/uatcp-uasc-uabinary",
        security_level=3,
    )


class TestHeaders:
    def test_request_header(self):
        header = RequestHeader(
            authentication_token=NodeId(0, 42),
            timestamp=NOW,
            request_handle=7,
            timeout_hint=5000,
        )
        round_trip(header)

    def test_response_header_with_fault(self):
        header = ResponseHeader(
            timestamp=NOW,
            request_handle=7,
            service_result=StatusCodes.BadServiceUnsupported,
        )
        round_trip(header)


class TestDiscoveryServices:
    def test_get_endpoints_request(self):
        round_trip(
            GetEndpointsRequest(
                request_header=RequestHeader(timestamp=NOW),
                endpoint_url="opc.tcp://10.0.0.1:4840/",
                locale_ids=["en"],
            )
        )

    def test_get_endpoints_response(self):
        round_trip(
            GetEndpointsResponse(
                response_header=ResponseHeader(timestamp=NOW),
                endpoints=[make_endpoint(), make_endpoint()],
            )
        )

    def test_empty_endpoint_list(self):
        out = round_trip(GetEndpointsResponse(endpoints=[]))
        assert out.endpoints == []

    def test_find_servers(self):
        round_trip(FindServersRequest(endpoint_url="opc.tcp://h:4840/"))
        round_trip(
            FindServersResponse(
                servers=[ApplicationDescription(application_uri="urn:x")]
            )
        )

    def test_endpoint_token_types_helper(self):
        endpoint = make_endpoint()
        assert endpoint.token_types() == {
            UserTokenType.ANONYMOUS,
            UserTokenType.USERNAME,
        }


class TestChannelServices:
    def test_open_request(self):
        round_trip(
            OpenSecureChannelRequest(
                request_header=RequestHeader(timestamp=NOW),
                request_type=SecurityTokenRequestType.ISSUE,
                security_mode=MessageSecurityMode.SIGN,
                client_nonce=b"\x01" * 32,
                requested_lifetime=600_000,
            )
        )

    def test_open_response(self):
        round_trip(
            OpenSecureChannelResponse(
                security_token=ChannelSecurityToken(
                    channel_id=5, token_id=1, created_at=NOW, revised_lifetime=600_000
                ),
                server_nonce=b"\x02" * 32,
            )
        )

    def test_close_request(self):
        round_trip(CloseSecureChannelRequest())


class TestSessionServices:
    def test_create_session_round_trip(self):
        round_trip(
            CreateSessionRequest(
                request_header=RequestHeader(timestamp=NOW),
                client_description=ApplicationDescription(
                    application_uri="urn:scanner",
                    application_type=ApplicationType.CLIENT,
                ),
                endpoint_url="opc.tcp://10.0.0.1:4840/",
                session_name="scan",
                client_nonce=b"\x03" * 32,
                client_certificate=b"\x30\x82",
            )
        )

    def test_create_session_response(self):
        round_trip(
            CreateSessionResponse(
                session_id=NodeId(1, 77),
                authentication_token=NodeId(0, b"tok"),
                revised_session_timeout=60_000.0,
                server_endpoints=[make_endpoint()],
            )
        )

    def test_activate_with_anonymous_token(self):
        token = AnonymousIdentityToken(policy_id="anon")
        request = ActivateSessionRequest(
            user_identity_token=registry.make_extension_object(token)
        )
        out = round_trip(request)
        decoded = registry.decode_extension_object(out.user_identity_token)
        assert decoded == token

    def test_activate_with_username_token(self):
        token = UserNameIdentityToken(
            policy_id="user", user_name="operator", password=b"hunter2"
        )
        request = ActivateSessionRequest(
            user_identity_token=registry.make_extension_object(token)
        )
        out = round_trip(request)
        assert registry.decode_extension_object(out.user_identity_token) == token

    def test_activate_response(self):
        round_trip(
            ActivateSessionResponse(
                server_nonce=b"\x04" * 32, results=[StatusCodes.Good]
            )
        )

    def test_close_session(self):
        round_trip(CloseSessionRequest(delete_subscriptions=False))

    @pytest.mark.parametrize(
        "token",
        [
            AnonymousIdentityToken("a"),
            UserNameIdentityToken("u", "user", b"pw", None),
            X509IdentityToken("c", b"\x30"),
            IssuedIdentityToken("t", b"jwt", None),
        ],
    )
    def test_all_identity_tokens_round_trip(self, token):
        wrapped = registry.make_extension_object(token)
        assert registry.decode_extension_object(wrapped) == token


class TestViewServices:
    def test_browse_request(self):
        round_trip(
            BrowseRequest(
                requested_max_references_per_node=1000,
                nodes_to_browse=[
                    BrowseDescription(
                        node_id=NodeId(0, 84),
                        browse_direction=BrowseDirection.FORWARD,
                        reference_type_id=NodeId(0, 33),
                    )
                ],
            )
        )

    def test_browse_response_with_references(self):
        reference = ReferenceDescription(
            reference_type_id=NodeId(0, 35),
            is_forward=True,
            node_id=ExpandedNodeId(NodeId(2, "Demo")),
            browse_name=QualifiedName(2, "Demo"),
            display_name=LocalizedText("Demo"),
            node_class=NodeClass.OBJECT,
            type_definition=ExpandedNodeId(NodeId(0, 61)),
        )
        round_trip(
            BrowseResponse(
                results=[
                    BrowseResult(
                        status_code=StatusCodes.Good, references=[reference]
                    )
                ]
            )
        )


class TestAttributeServices:
    def test_read_request(self):
        round_trip(
            ReadRequest(
                nodes_to_read=[
                    ReadValueId(node_id=NodeId(2, "Demo/Value"), attribute_id=13)
                ]
            )
        )

    def test_read_response(self):
        round_trip(
            ReadResponse(
                results=[
                    DataValue(value=Variant(3.14, VariantType.DOUBLE)),
                    DataValue(status=StatusCodes.BadAttributeIdInvalid),
                ]
            )
        )


class TestMethodServices:
    def test_service_fault(self):
        fault = ServiceFault(
            response_header=ResponseHeader(
                service_result=StatusCodes.BadSecurityChecksFailed
            )
        )
        round_trip(fault)


class TestRegistry:
    def test_every_registered_struct_round_trips_by_id(self):
        for cls, numeric in registry.BINARY_ENCODING_IDS.items():
            assert registry.lookup_struct(NodeId(0, numeric)) is cls

    def test_encode_body_nodeid(self):
        node_id = registry.encode_body_nodeid(GetEndpointsRequest)
        assert node_id == NodeId(0, 428)

    def test_unknown_id_rejected(self):
        with pytest.raises(DecodingError):
            registry.lookup_struct(NodeId(0, 999999))

    def test_unknown_class_rejected(self):
        class NotRegistered:
            pass

        with pytest.raises(DecodingError):
            registry.encode_body_nodeid(NotRegistered)

    def test_null_extension_object_decodes_to_none(self):
        assert registry.decode_extension_object(ExtensionObject.null()) is None

    def test_truncated_body_raises_decoding_error(self):
        wrapped = registry.make_extension_object(GetEndpointsRequest())
        broken = ExtensionObject(wrapped.type_id, wrapped.body[:5], 1)
        with pytest.raises(DecodingError):
            registry.decode_extension_object(broken)

    def test_oversized_array_length_rejected(self):
        # A malicious length prefix must not cause a huge allocation.
        data = GetEndpointsResponse(endpoints=[]).to_bytes()
        corrupted = data[:-4] + (2**31 - 1).to_bytes(4, "little")
        with pytest.raises(DecodingError):
            GetEndpointsResponse.from_bytes(corrupted)
