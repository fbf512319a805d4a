"""Shared helpers: loopback stream + canned server configurations."""

from __future__ import annotations

import struct

from repro.client import ClientIdentity, UaClient
from repro.secure.negotiation import ChannelSecurity
from repro.secure.policies import POLICY_BASIC256SHA256, POLICY_NONE
from repro.server import (
    Authenticator,
    EndpointConfig,
    Permissions,
    ServerConfig,
    UaServer,
    UserDirectory,
    VariableNode,
)
from repro.server.addressspace import AddressSpace, NodeIds, ReferenceTypeIds
from repro.server.nodes import MethodNode, ObjectNode
from repro.uabin.builtin import LocalizedText, QualifiedName
from repro.uabin.enums import MessageSecurityMode, UserTokenType
from repro.uabin.nodeid import NodeId
from repro.uabin.variant import Variant, VariantType
from repro.util.rng import DeterministicRng
from repro.util.simtime import parse_utc
from repro.x509.builder import make_self_signed


class LoopbackStream:
    """Connects a UaClient directly to a ServerConnection in-process."""

    def __init__(self, server: UaServer):
        self._connection = server.new_connection()
        self._inbox = bytearray()

    def write(self, data: bytes) -> None:
        self._inbox.extend(self._connection.receive(data))

    def read(self) -> bytes:
        out = bytes(self._inbox)
        self._inbox.clear()
        return out


def cut_last_byte(frame: bytes) -> bytes:
    """Drop a frame's last byte and fix up its length field."""
    return frame[:4] + struct.pack("<I", len(frame) - 1) + frame[8:-1]


def demo_address_space() -> AddressSpace:
    space = AddressSpace()
    demo_ns = space.register_namespace("urn:repro:tests:demo")
    plant = ObjectNode(
        node_id=NodeId(demo_ns, "Plant"),
        browse_name=QualifiedName(demo_ns, "Plant"),
        display_name=LocalizedText("Plant"),
    )
    space.add_node(plant, parent=NodeIds.ObjectsFolder,
                   reference_type=ReferenceTypeIds.Organizes)
    space.add_node(
        VariableNode(
            node_id=NodeId(demo_ns, "Plant/m3InflowPerHour"),
            browse_name=QualifiedName(demo_ns, "m3InflowPerHour"),
            display_name=LocalizedText("m3InflowPerHour"),
            value=Variant(12.5, VariantType.DOUBLE),
            permissions=Permissions.make(read_anonymous=True),
        ),
        parent=plant.node_id,
    )
    space.add_node(
        VariableNode(
            node_id=NodeId(demo_ns, "Plant/rSetFillLevel"),
            browse_name=QualifiedName(demo_ns, "rSetFillLevel"),
            display_name=LocalizedText("rSetFillLevel"),
            value=Variant(80.0, VariantType.DOUBLE),
            permissions=Permissions.make(read_anonymous=True, write_anonymous=True),
        ),
        parent=plant.node_id,
    )
    space.add_node(
        VariableNode(
            node_id=NodeId(demo_ns, "Plant/Secret"),
            browse_name=QualifiedName(demo_ns, "Secret"),
            display_name=LocalizedText("Secret"),
            value=Variant("classified", VariantType.STRING),
            permissions=Permissions(),  # authenticated only
        ),
        parent=plant.node_id,
    )
    space.add_node(
        MethodNode(
            node_id=NodeId(demo_ns, "Plant/AddEndpoint"),
            browse_name=QualifiedName(demo_ns, "AddEndpoint"),
            display_name=LocalizedText("AddEndpoint"),
            permissions=Permissions.make(execute_anonymous=True),
        ),
        parent=plant.node_id,
    )
    return space


def build_server(
    rng: DeterministicRng,
    server_keys,
    endpoint_configs=None,
    token_types=None,
    behavior=None,
    address_space=None,
    users: dict[str, str] | None = None,
):
    certificate = make_self_signed(
        server_keys,
        common_name="test-server",
        application_uri="urn:repro:tests:server",
        not_before=parse_utc("2020-01-01"),
        hash_name="sha256",
        rng=rng.substream("server-cert"),
    )
    token_types = token_types or [UserTokenType.ANONYMOUS, UserTokenType.USERNAME]
    directory = UserDirectory()
    for name, password in (users or {"operator": "secret"}).items():
        directory.add_user(name, password)
    config = ServerConfig(
        application_uri="urn:repro:tests:server",
        application_name="Test Server",
        endpoint_url="opc.tcp://10.0.0.1:4840/",
        certificate=certificate,
        private_key=server_keys.private,
        endpoint_configs=endpoint_configs
        or [
            EndpointConfig(MessageSecurityMode.NONE, POLICY_NONE),
            EndpointConfig(MessageSecurityMode.SIGN, POLICY_BASIC256SHA256),
            EndpointConfig(
                MessageSecurityMode.SIGN_AND_ENCRYPT, POLICY_BASIC256SHA256
            ),
        ],
        token_types=token_types,
        authenticator=Authenticator(
            allowed_token_types=set(token_types), directory=directory
        ),
        address_space=address_space or demo_address_space(),
        software_version="3.10.1",
    )
    if behavior is not None:
        config.behavior = behavior
    return UaServer(config, rng.substream("server"))


def secure_open(client: UaClient, policy, mode, server_certificate_der):
    """Open ``client``'s channel at ``(policy, mode)`` toward a server cert."""
    return client.open_secure_channel(
        ChannelSecurity.for_endpoint(
            policy, mode, client.identity, server_certificate_der
        )
    )


def build_client(server: UaServer, rng: DeterministicRng, client_keys):
    certificate = make_self_signed(
        client_keys,
        common_name="test-client",
        application_uri="urn:repro:tests:client",
        not_before=parse_utc("2020-01-01"),
        hash_name="sha256",
        rng=rng.substream("client-cert"),
    )
    identity = ClientIdentity(
        application_uri="urn:repro:tests:client",
        application_name="Test Client",
        certificate=certificate,
        private_key=client_keys.private,
    )
    return UaClient(
        LoopbackStream(server),
        identity,
        rng.substream("client"),
        endpoint_url="opc.tcp://10.0.0.1:4840/",
    )
