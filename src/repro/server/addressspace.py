"""The address space: nodes, references, and the namespace table.

Namespaces carry the semantic hints the paper's classification
heuristic uses (§5.4): nodes under a namespace URI referencing an
industrial standard (e.g. IEC 61131-3) indicate a production system,
example-application namespaces indicate test systems.
"""

from __future__ import annotations


from repro.server.nodes import MethodNode, Node, ObjectNode, VariableNode
from repro.uabin.builtin import LocalizedText, QualifiedName
from repro.uabin.nodeid import NodeId
from repro.uabin.variant import Variant, VariantType


class NodeIds:
    """Well-known NodeIds from the standard namespace (ns=0)."""

    RootFolder = NodeId(0, 84)
    ObjectsFolder = NodeId(0, 85)
    TypesFolder = NodeId(0, 86)
    ViewsFolder = NodeId(0, 87)
    Server = NodeId(0, 2253)
    Server_NamespaceArray = NodeId(0, 2255)
    Server_ServerArray = NodeId(0, 2254)
    Server_ServerStatus = NodeId(0, 2256)
    Server_SoftwareVersion = NodeId(0, 2264)
    # Type definitions
    FolderType = NodeId(0, 61)
    BaseObjectType = NodeId(0, 58)
    BaseDataVariableType = NodeId(0, 63)
    PropertyType = NodeId(0, 68)


class ReferenceTypeIds:
    Organizes = NodeId(0, 35)
    HasComponent = NodeId(0, 47)
    HasProperty = NodeId(0, 46)
    HasTypeDefinition = NodeId(0, 40)


STANDARD_NAMESPACE = "http://opcfoundation.org/UA/"


class AddressSpace:
    """Mutable node graph with a namespace table."""

    def __init__(self):
        self._nodes: dict[NodeId, Node] = {}
        self._namespaces: list[str] = [STANDARD_NAMESPACE]
        self._install_standard_nodes()

    # --- namespaces ----------------------------------------------------------

    @property
    def namespaces(self) -> list[str]:
        return list(self._namespaces)

    def register_namespace(self, uri: str) -> int:
        """Add a namespace URI; returns its index (idempotent)."""
        if uri in self._namespaces:
            return self._namespaces.index(uri)
        self._namespaces.append(uri)
        self._refresh_namespace_array()
        return len(self._namespaces) - 1

    def _refresh_namespace_array(self) -> None:
        node = self._nodes.get(NodeIds.Server_NamespaceArray)
        if isinstance(node, VariableNode):
            node.value = Variant(
                list(self._namespaces), VariantType.STRING, is_array=True
            )

    # --- nodes ---------------------------------------------------------------

    def add_node(self, node: Node, parent: NodeId | None = None,
                 reference_type: NodeId | None = None) -> Node:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id: {node.node_id.to_string()}")
        self._nodes[node.node_id] = node
        if parent is not None:
            ref_type = reference_type or ReferenceTypeIds.HasComponent
            parent_node = self.get(parent)
            parent_node.add_reference(ref_type, node.node_id, is_forward=True)
            node.add_reference(ref_type, parent, is_forward=False)
        return node

    def get(self, node_id: NodeId) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node: {node_id.to_string()}") from None

    def get_or_none(self, node_id: NodeId) -> Node | None:
        return self._nodes.get(node_id)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def variables(self):
        return (n for n in self._nodes.values() if isinstance(n, VariableNode))

    def methods(self):
        return (n for n in self._nodes.values() if isinstance(n, MethodNode))

    # --- standard nodes -------------------------------------------------------

    def _install_standard_nodes(self) -> None:
        root = ObjectNode(
            node_id=NodeIds.RootFolder,
            browse_name=QualifiedName(0, "Root"),
            display_name=LocalizedText("Root"),
            type_definition=NodeIds.FolderType,
        )
        self._nodes[root.node_id] = root
        for node_id, name in (
            (NodeIds.ObjectsFolder, "Objects"),
            (NodeIds.TypesFolder, "Types"),
            (NodeIds.ViewsFolder, "Views"),
        ):
            folder = ObjectNode(
                node_id=node_id,
                browse_name=QualifiedName(0, name),
                display_name=LocalizedText(name),
                type_definition=NodeIds.FolderType,
            )
            self._nodes[folder.node_id] = folder
            root.add_reference(ReferenceTypeIds.Organizes, node_id)
            folder.add_reference(ReferenceTypeIds.Organizes, root.node_id, False)

        server = ObjectNode(
            node_id=NodeIds.Server,
            browse_name=QualifiedName(0, "Server"),
            display_name=LocalizedText("Server"),
            type_definition=NodeIds.BaseObjectType,
        )
        self.add_node(server, parent=NodeIds.ObjectsFolder,
                      reference_type=ReferenceTypeIds.Organizes)

        from repro.server.access import Permissions

        namespace_array = VariableNode(
            node_id=NodeIds.Server_NamespaceArray,
            browse_name=QualifiedName(0, "NamespaceArray"),
            display_name=LocalizedText("NamespaceArray"),
            value=Variant([STANDARD_NAMESPACE], VariantType.STRING, is_array=True),
            permissions=Permissions.read_only_public(),
            type_definition=NodeIds.PropertyType,
        )
        self.add_node(namespace_array, parent=NodeIds.Server,
                      reference_type=ReferenceTypeIds.HasProperty)

        software_version = VariableNode(
            node_id=NodeIds.Server_SoftwareVersion,
            browse_name=QualifiedName(0, "SoftwareVersion"),
            display_name=LocalizedText("SoftwareVersion"),
            value=Variant("1.0.0", VariantType.STRING),
            permissions=Permissions.read_only_public(),
            type_definition=NodeIds.PropertyType,
        )
        self.add_node(software_version, parent=NodeIds.Server,
                      reference_type=ReferenceTypeIds.HasProperty)

    def set_software_version(self, version: str) -> None:
        """Set the SoftwareVersion the paper's §5.5 update analysis reads."""
        node = self.get(NodeIds.Server_SoftwareVersion)
        node.value = Variant(version, VariantType.STRING)

    def software_version(self) -> str:
        node = self.get(NodeIds.Server_SoftwareVersion)
        return node.value.value
