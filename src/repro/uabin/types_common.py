"""Structures shared across service sets.

``EndpointDescription`` is the study's central observable: everything
the paper's Figures 3 and 6 report is read off the endpoint lists that
servers return from GetEndpoints.  ``ServiceFault`` is the reply any
service may send instead of its own response.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.uabin.enums import ApplicationType, MessageSecurityMode, UserTokenType
from repro.uabin.builtin import LocalizedText
from repro.uabin.structs import ResponseHeader, UaStruct


@dataclass
class ApplicationDescription(UaStruct):
    """Identifies an OPC UA application (server or client).

    ``application_uri`` is the field the paper clusters manually to
    attribute servers to manufacturers (Section 4).
    """

    application_uri: str | None = None
    product_uri: str | None = None
    application_name: LocalizedText = field(default_factory=LocalizedText)
    application_type: ApplicationType = ApplicationType.SERVER
    gateway_server_uri: str | None = None
    discovery_profile_uri: str | None = None
    discovery_urls: list[str] | None = None

    _fields_ = [
        ("application_uri", "string"),
        ("product_uri", "string"),
        ("application_name", "localizedtext"),
        ("application_type", ApplicationType),
        ("gateway_server_uri", "string"),
        ("discovery_profile_uri", "string"),
        ("discovery_urls", ("array", "string")),
    ]


@dataclass
class UserTokenPolicy(UaStruct):
    """One way a client may authenticate during session activation."""

    policy_id: str | None = None
    token_type: UserTokenType = UserTokenType.ANONYMOUS
    issued_token_type: str | None = None
    issuer_endpoint_url: str | None = None
    security_policy_uri: str | None = None

    _fields_ = [
        ("policy_id", "string"),
        ("token_type", UserTokenType),
        ("issued_token_type", "string"),
        ("issuer_endpoint_url", "string"),
        ("security_policy_uri", "string"),
    ]


@dataclass
class EndpointDescription(UaStruct):
    """A connection offer: URL + security mode + policy + token types."""

    endpoint_url: str | None = None
    server: ApplicationDescription = field(default_factory=ApplicationDescription)
    server_certificate: bytes | None = None
    security_mode: MessageSecurityMode = MessageSecurityMode.NONE
    security_policy_uri: str | None = None
    user_identity_tokens: list[UserTokenPolicy] | None = None
    transport_profile_uri: str | None = None
    security_level: int = 0

    _fields_ = [
        ("endpoint_url", "string"),
        ("server", ApplicationDescription),
        ("server_certificate", "bytestring"),
        ("security_mode", MessageSecurityMode),
        ("security_policy_uri", "string"),
        ("user_identity_tokens", ("array", UserTokenPolicy)),
        ("transport_profile_uri", "string"),
        ("security_level", "byte"),
    ]

    def token_types(self) -> set[UserTokenType]:
        return {p.token_type for p in self.user_identity_tokens or []}


@dataclass
class SignatureData(UaStruct):
    """Algorithm URI + signature bytes."""

    algorithm: str | None = None
    signature: bytes | None = None

    _fields_ = [
        ("algorithm", "string"),
        ("signature", "bytestring"),
    ]


@dataclass
class SignedSoftwareCertificate(UaStruct):
    certificate_data: bytes | None = None
    signature: bytes | None = None

    _fields_ = [
        ("certificate_data", "bytestring"),
        ("signature", "bytestring"),
    ]


@dataclass
class ServiceFault(UaStruct):
    """Generic failure response; the status lives in the header."""

    response_header: ResponseHeader = field(default_factory=ResponseHeader)

    _fields_ = [("response_header", ResponseHeader)]
