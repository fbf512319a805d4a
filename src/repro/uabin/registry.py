"""ExtensionObject type registry.

Maps each service structure to its binary-encoding NodeId (namespace
0, the ``_Encoding_DefaultBinary`` ids from the OPC UA NodeSet) and
back, so message bodies can be wrapped/unwrapped generically.
"""

from __future__ import annotations

from repro.uabin.nodeid import NodeId
from repro.uabin.structs import DecodingError, ExtensionObject, UaStruct
from repro.uabin import types_attribute, types_channel, types_common
from repro.uabin import types_discovery, types_session, types_view

# Binary-encoding NodeIds from the standard NodeSet (OPC 10000-6 Annex).
BINARY_ENCODING_IDS: dict[type[UaStruct], int] = {
    types_common.ServiceFault: 397,
    types_discovery.FindServersRequest: 422,
    types_discovery.FindServersResponse: 425,
    types_discovery.GetEndpointsRequest: 428,
    types_discovery.GetEndpointsResponse: 431,
    types_channel.OpenSecureChannelRequest: 446,
    types_channel.OpenSecureChannelResponse: 449,
    types_channel.CloseSecureChannelRequest: 452,
    types_channel.CloseSecureChannelResponse: 455,
    types_session.CreateSessionRequest: 461,
    types_session.CreateSessionResponse: 464,
    types_session.ActivateSessionRequest: 467,
    types_session.ActivateSessionResponse: 470,
    types_session.CloseSessionRequest: 473,
    types_session.CloseSessionResponse: 476,
    types_view.BrowseRequest: 527,
    types_view.BrowseResponse: 530,
    types_attribute.ReadRequest: 631,
    types_attribute.ReadResponse: 634,
    types_session.AnonymousIdentityToken: 321,
    types_session.UserNameIdentityToken: 324,
    types_session.X509IdentityToken: 327,
    types_session.IssuedIdentityToken: 940,
}

_BY_ID: dict[int, type[UaStruct]] = {
    numeric: cls for cls, numeric in BINARY_ENCODING_IDS.items()
}


def encode_body_nodeid(cls: type[UaStruct]) -> NodeId:
    try:
        return NodeId(0, BINARY_ENCODING_IDS[cls])
    except KeyError:
        raise DecodingError(f"{cls.__name__} has no binary encoding id") from None


def lookup_struct(node_id: NodeId) -> type[UaStruct]:
    if node_id.namespace != 0 or not isinstance(node_id.identifier, int):
        raise DecodingError(f"unknown message type: {node_id.to_string()}")
    try:
        return _BY_ID[node_id.identifier]
    except KeyError:
        raise DecodingError(
            f"unknown message type: {node_id.to_string()}"
        ) from None


def make_extension_object(value: UaStruct) -> ExtensionObject:
    """Wrap a structure as an ExtensionObject with a binary body."""
    return ExtensionObject(
        type_id=encode_body_nodeid(type(value)), body=value.to_bytes(), encoding=1
    )


def decode_extension_object(ext: ExtensionObject) -> UaStruct | None:
    """Unwrap an ExtensionObject; None when there is no body."""
    if ext.body is None:
        return None
    cls = lookup_struct(ext.type_id)
    return cls.from_bytes(ext.body)
