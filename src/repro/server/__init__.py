"""A from-scratch OPC UA server.

Serves the binary protocol end to end: transport handshake, secure
channels under any of the six security policies, sessions with the
four authentication token types, per-node access control, and the
seven services the scanner sends: GetEndpoints, FindServers,
CreateSession, ActivateSession, CloseSession, Browse and Read.

Deliberately configurable into *insecure* shapes: the deployment
generator uses these knobs (None-only endpoints, deprecated policies,
mismatched certificates, anonymous access, reused certificates) to
build the population whose misconfigurations the study measures.
"""

from repro.server.access import Permissions, Role, UserContext
from repro.server.addressspace import AddressSpace, NodeIds, ReferenceTypeIds
from repro.server.nodes import MethodNode, Node, ObjectNode, VariableNode
from repro.server.auth import AuthenticationError, Authenticator, UserDirectory
from repro.server.endpoints import EndpointConfig
from repro.server.engine import ServerBehavior, ServerConfig, UaServer
from repro.server.tcp import TcpServerHost

__all__ = [
    "AddressSpace",
    "AuthenticationError",
    "Authenticator",
    "EndpointConfig",
    "MethodNode",
    "Node",
    "NodeIds",
    "ObjectNode",
    "Permissions",
    "ReferenceTypeIds",
    "Role",
    "ServerBehavior",
    "ServerConfig",
    "TcpServerHost",
    "UaServer",
    "UserContext",
    "UserDirectory",
    "VariableNode",
]
