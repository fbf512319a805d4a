"""OPC UA binary encoding (OPC 10000-6) and service data types.

Implements the subset of the OPC UA type system the study exercises:
all 25 built-in types, the six NodeId encodings, variants/data values,
and the service structures for the secure channel and the seven
services the scanner sends (GetEndpoints, FindServers, CreateSession,
ActivateSession, CloseSession, Browse and Read).  Structures use a
small declarative codec (``_fields_`` tables) so every message is
defined in one place.
"""

from repro.uabin.enums import (
    ApplicationType,
    AttributeId,
    BrowseDirection,
    MessageSecurityMode,
    NodeClass,
    SecurityTokenRequestType,
    TimestampsToReturn,
    UserTokenType,
)
from repro.uabin.nodeid import ExpandedNodeId, NodeId
from repro.uabin.statuscodes import StatusCode, StatusCodes
from repro.uabin.variant import DataValue, Variant, VariantType
from repro.uabin.structs import DecodingError, ExtensionObject, UaStruct
from repro.uabin.registry import (
    decode_extension_object,
    encode_body_nodeid,
    lookup_struct,
    make_extension_object,
)

__all__ = [
    "ApplicationType",
    "AttributeId",
    "BrowseDirection",
    "DataValue",
    "DecodingError",
    "ExpandedNodeId",
    "ExtensionObject",
    "MessageSecurityMode",
    "NodeClass",
    "NodeId",
    "SecurityTokenRequestType",
    "StatusCode",
    "StatusCodes",
    "TimestampsToReturn",
    "UaStruct",
    "UserTokenType",
    "Variant",
    "VariantType",
    "decode_extension_object",
    "encode_body_nodeid",
    "lookup_struct",
    "make_extension_object",
]
