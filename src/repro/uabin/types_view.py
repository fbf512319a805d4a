"""View service set: Browse.

The scanner's address-space traversal (paper §5.4, Figure 7) is a
breadth-first walk driven by Browse requests.  Each request asks for
every reference of a node at once (no per-node maximum), so the
simulated servers never hand out continuation points and BrowseNext
is not part of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

from repro.uabin.builtin import LocalizedText, QualifiedName
from repro.uabin.enums import BrowseDirection, NodeClass
from repro.uabin.nodeid import ExpandedNodeId, NodeId
from repro.uabin.statuscodes import StatusCode, StatusCodes
from repro.uabin.structs import RequestHeader, ResponseHeader, UaStruct


@dataclass
class ViewDescription(UaStruct):
    view_id: NodeId = field(default_factory=NodeId)
    timestamp: datetime | None = None
    view_version: int = 0

    _fields_ = [
        ("view_id", "nodeid"),
        ("timestamp", "datetime"),
        ("view_version", "uint32"),
    ]


@dataclass
class BrowseDescription(UaStruct):
    node_id: NodeId = field(default_factory=NodeId)
    browse_direction: BrowseDirection = BrowseDirection.FORWARD
    reference_type_id: NodeId = field(default_factory=NodeId)
    include_subtypes: bool = True
    node_class_mask: int = 0
    result_mask: int = 63

    _fields_ = [
        ("node_id", "nodeid"),
        ("browse_direction", BrowseDirection),
        ("reference_type_id", "nodeid"),
        ("include_subtypes", "boolean"),
        ("node_class_mask", "uint32"),
        ("result_mask", "uint32"),
    ]


@dataclass
class ReferenceDescription(UaStruct):
    reference_type_id: NodeId = field(default_factory=NodeId)
    is_forward: bool = True
    node_id: ExpandedNodeId = field(default_factory=ExpandedNodeId)
    browse_name: QualifiedName = field(default_factory=QualifiedName)
    display_name: LocalizedText = field(default_factory=LocalizedText)
    node_class: NodeClass = NodeClass.UNSPECIFIED
    type_definition: ExpandedNodeId = field(default_factory=ExpandedNodeId)

    _fields_ = [
        ("reference_type_id", "nodeid"),
        ("is_forward", "boolean"),
        ("node_id", "expandednodeid"),
        ("browse_name", "qualifiedname"),
        ("display_name", "localizedtext"),
        ("node_class", NodeClass),
        ("type_definition", "expandednodeid"),
    ]


@dataclass
class BrowseResult(UaStruct):
    status_code: StatusCode = field(default_factory=lambda: StatusCodes.Good)
    continuation_point: bytes | None = None
    references: list[ReferenceDescription] | None = None

    _fields_ = [
        ("status_code", "statuscode"),
        ("continuation_point", "bytestring"),
        ("references", ("array", ReferenceDescription)),
    ]


@dataclass
class BrowseRequest(UaStruct):
    request_header: RequestHeader = field(default_factory=RequestHeader)
    view: ViewDescription = field(default_factory=ViewDescription)
    requested_max_references_per_node: int = 0
    nodes_to_browse: list[BrowseDescription] | None = None

    _fields_ = [
        ("request_header", RequestHeader),
        ("view", ViewDescription),
        ("requested_max_references_per_node", "uint32"),
        ("nodes_to_browse", ("array", BrowseDescription)),
    ]


@dataclass
class BrowseResponse(UaStruct):
    response_header: ResponseHeader = field(default_factory=ResponseHeader)
    results: list[BrowseResult] | None = None
    diagnostic_infos: list | None = None

    _fields_ = [
        ("response_header", ResponseHeader),
        ("results", ("array", BrowseResult)),
        ("diagnostic_infos", ("array", "diagnosticinfo")),
    ]
