"""Node classes populating a server's address space."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.server.access import Permissions, Role
from repro.uabin.builtin import LocalizedText, QualifiedName
from repro.uabin.enums import AccessLevel, NodeClass
from repro.uabin.nodeid import NodeId
from repro.uabin.variant import Variant


@dataclass
class Reference:
    """A directed, typed edge between two nodes."""

    reference_type: NodeId
    target: NodeId
    is_forward: bool = True


@dataclass
class Node:
    """Common node attributes (OPC 10000-3 §5.2)."""

    node_id: NodeId
    browse_name: QualifiedName
    display_name: LocalizedText
    node_class: NodeClass = NodeClass.OBJECT
    description: LocalizedText = field(default_factory=LocalizedText)
    references: list[Reference] = field(default_factory=list)
    type_definition: NodeId = field(default_factory=lambda: NodeId(0, 58))

    def add_reference(
        self, reference_type: NodeId, target: NodeId, is_forward: bool = True
    ) -> None:
        self.references.append(Reference(reference_type, target, is_forward))


@dataclass
class ObjectNode(Node):
    """A structural object (folder, device, subsystem)."""

    def __post_init__(self):
        self.node_class = NodeClass.OBJECT


@dataclass
class VariableNode(Node):
    """A value-bearing node; the study's read/write analysis target."""

    value: Variant = field(default_factory=Variant)
    permissions: Permissions = field(default_factory=Permissions)

    def __post_init__(self):
        self.node_class = NodeClass.VARIABLE
        if self.type_definition == NodeId(0, 58):
            self.type_definition = NodeId(0, 63)  # BaseDataVariableType

    def access_level(self) -> int:
        """The AccessLevel attribute (capabilities of the node itself)."""
        level = AccessLevel.NONE
        if self.permissions.read:
            level |= AccessLevel.CURRENT_READ
        if self.permissions.write:
            level |= AccessLevel.CURRENT_WRITE
        return int(level)

    def user_access_level(self, role: Role) -> int:
        """The UserAccessLevel attribute for a specific principal."""
        level = AccessLevel.NONE
        if self.permissions.allows_read(role):
            level |= AccessLevel.CURRENT_READ
        if self.permissions.allows_write(role):
            level |= AccessLevel.CURRENT_WRITE
        return int(level)


@dataclass
class MethodNode(Node):
    """A method node; the study's execute analysis target (its
    executable attributes are read, the method is never called)."""

    permissions: Permissions = field(default_factory=Permissions)

    def __post_init__(self):
        self.node_class = NodeClass.METHOD

    def executable(self) -> bool:
        return bool(self.permissions.execute)

    def user_executable(self, role: Role) -> bool:
        return self.permissions.allows_execute(role)
