"""Attribute service set: Read.

The scanner reads node attributes (value, access level, executable)
during traversal.  It never writes (ethics, Appendix A of the paper),
so the Write service is not part of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.uabin.builtin import QualifiedName
from repro.uabin.enums import TimestampsToReturn
from repro.uabin.nodeid import NodeId
from repro.uabin.structs import RequestHeader, ResponseHeader, UaStruct
from repro.uabin.variant import DataValue


@dataclass
class ReadValueId(UaStruct):
    node_id: NodeId = field(default_factory=NodeId)
    attribute_id: int = 13  # AttributeId.VALUE
    index_range: str | None = None
    data_encoding: QualifiedName = field(default_factory=QualifiedName)

    _fields_ = [
        ("node_id", "nodeid"),
        ("attribute_id", "uint32"),
        ("index_range", "string"),
        ("data_encoding", "qualifiedname"),
    ]


@dataclass
class ReadRequest(UaStruct):
    request_header: RequestHeader = field(default_factory=RequestHeader)
    max_age: float = 0.0
    timestamps_to_return: TimestampsToReturn = TimestampsToReturn.NEITHER
    nodes_to_read: list[ReadValueId] | None = None

    _fields_ = [
        ("request_header", RequestHeader),
        ("max_age", "double"),
        ("timestamps_to_return", TimestampsToReturn),
        ("nodes_to_read", ("array", ReadValueId)),
    ]


@dataclass
class ReadResponse(UaStruct):
    response_header: ResponseHeader = field(default_factory=ResponseHeader)
    results: list[DataValue] | None = None
    diagnostic_infos: list | None = None

    _fields_ = [
        ("response_header", ResponseHeader),
        ("results", ("array", "datavalue")),
        ("diagnostic_infos", ("array", "diagnosticinfo")),
    ]
