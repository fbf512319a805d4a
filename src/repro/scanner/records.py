"""Scan record schema with JSON round-trip.

Every analysis in :mod:`repro.analysis` consumes these records only —
never the ground-truth population — so the pipeline has the same
information boundary as the paper's: whatever crossed the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

from repro.uabin.enums import MessageSecurityMode, UserTokenType
from repro.util.simtime import format_utc, parse_utc
from repro.x509.certificate import Certificate, CertificateError, parse_certificate
from repro.x509.fingerprint import sha1_thumbprint
from repro.x509.verify import verify_certificate_signature


@dataclass
class CertificateInfo:
    """Fields the analysis reads off a served certificate."""

    der_hex: str
    thumbprint_hex: str
    signature_hash: str
    key_bits: int
    subject: str
    issuer: str
    not_before: str
    not_after: str
    application_uri: str | None
    self_signed: bool
    signature_valid: bool
    modulus_hex: str  # for the shared-prime analysis (§5.3)

    @classmethod
    def from_der(cls, der: bytes) -> "CertificateInfo | None":
        try:
            certificate = parse_certificate(der)
        except CertificateError:
            return None
        return cls.from_certificate(certificate)

    @classmethod
    def from_certificate(cls, certificate: Certificate) -> "CertificateInfo":
        return cls(
            der_hex=certificate.raw_der.hex(),
            thumbprint_hex=sha1_thumbprint(certificate).hex(),
            signature_hash=certificate.signature_hash,
            key_bits=certificate.key_bits,
            subject=certificate.subject.rfc4514(),
            issuer=certificate.issuer.rfc4514(),
            not_before=format_utc(certificate.not_before),
            not_after=format_utc(certificate.not_after),
            application_uri=certificate.application_uri,
            self_signed=certificate.self_signed,
            signature_valid=verify_certificate_signature(certificate),
            modulus_hex=f"{certificate.public_key.n:x}",
        )

    @property
    def modulus(self) -> int:
        return int(self.modulus_hex, 16)

    def not_before_dt(self) -> datetime:
        return parse_utc(self.not_before)


@dataclass
class EndpointRecord:
    """One advertised endpoint as seen on the wire."""

    endpoint_url: str | None
    security_mode: int  # MessageSecurityMode value
    security_policy_uri: str | None
    token_types: list[int] = field(default_factory=list)
    security_level: int = 0

    @property
    def mode(self) -> MessageSecurityMode:
        return MessageSecurityMode(self.security_mode)

    def token_type_set(self) -> set[UserTokenType]:
        return {UserTokenType(t) for t in self.token_types}


@dataclass
class SecureChannelAttempt:
    """Result of the OpenSecureChannel probe with our self-signed cert."""

    security_policy_uri: str
    security_mode: int
    success: bool
    error_status: int | None = None
    error_reason: str | None = None


@dataclass
class SessionAttempt:
    """Result of the anonymous session attempt.

    ``error_category`` separates *how* a failed attempt failed —
    timeout, refusal, transport rejection, protocol fault — where
    ``error_status`` alone cannot (connection-level failures carry no
    status code).  ``details_error`` marks a partial success: the
    session activated, but collecting namespaces / software version /
    traversal failed afterwards.

    ``negotiated_policy_uri``/``negotiated_mode`` record the secure
    channel the grab opened at the strongest advertised pair: set when
    its OpenSecureChannel and one protected round trip on it both
    succeeded.  Otherwise ``negotiation_error`` holds why — the
    rejection's status name or the probe's failure reason when the
    open failed, the failure category when the round trip did.  Hosts
    advertising only None endpoints leave all three unset.

    All five are sparse fields: they are omitted from the canonical
    JSON when unset, so records from hosts that never reach them keep
    their exact pre-existing bytes (pinned by the golden digests).
    """

    attempted: bool
    token_type: int | None = None
    security_mode: int | None = None
    security_policy_uri: str | None = None
    success: bool = False
    error_status: int | None = None
    error_category: str | None = None
    details_error: str | None = None
    negotiated_policy_uri: str | None = None
    negotiated_mode: int | None = None
    negotiation_error: str | None = None


@dataclass
class NodeSummary:
    """Aggregate of an anonymous address-space traversal."""

    total_nodes: int = 0
    variables: int = 0
    methods: int = 0
    readable_variables: int = 0
    writable_variables: int = 0
    executable_methods: int = 0
    readable_names_sample: list[str] = field(default_factory=list)
    writable_names_sample: list[str] = field(default_factory=list)
    executable_names_sample: list[str] = field(default_factory=list)
    # Sample of readable string values (payload; stripped from any
    # dataset release, used in-house for operator identification).
    value_samples: list[str] = field(default_factory=list)
    traversal_complete: bool = True
    budget_exhausted: str | None = None

    @property
    def readable_fraction(self) -> float:
        return self.readable_variables / self.variables if self.variables else 0.0

    @property
    def writable_fraction(self) -> float:
        return self.writable_variables / self.variables if self.variables else 0.0

    @property
    def executable_fraction(self) -> float:
        return self.executable_methods / self.methods if self.methods else 0.0


@dataclass
class HostRecord:
    """Everything the scanner learned about one host/port."""

    ip: int
    port: int
    asn: int | None
    timestamp: str
    tcp_open: bool = False
    is_opcua: bool = False
    via_reference: bool = False
    application_uri: str | None = None
    application_type: int | None = None
    product_uri: str | None = None
    software_version: str | None = None
    endpoints: list[EndpointRecord] = field(default_factory=list)
    certificate: CertificateInfo | None = None
    secure_channel: SecureChannelAttempt | None = None
    session: SessionAttempt | None = None
    namespaces: list[str] = field(default_factory=list)
    nodes: NodeSummary | None = None
    error: str | None = None
    # Sparse (omitted from JSON when None): connection-level failure
    # class — see SessionAttempt.error_category.
    error_category: str | None = None
    scan_duration_s: float = 0.0
    scan_bytes: int = 0

    # --- derived views used throughout the analysis -------------------------

    @property
    def is_discovery_server(self) -> bool:
        from repro.uabin.enums import ApplicationType

        return self.application_type == int(ApplicationType.DISCOVERY_SERVER)

    def security_modes(self) -> set[MessageSecurityMode]:
        return {e.mode for e in self.endpoints}

    def security_policy_uris(self) -> set[str]:
        return {
            e.security_policy_uri
            for e in self.endpoints
            if e.security_policy_uri is not None
        }

    def offered_token_types(self) -> set[UserTokenType]:
        offered: set[UserTokenType] = set()
        for endpoint in self.endpoints:
            offered |= endpoint.token_type_set()
        return offered

    def offers_anonymous(self) -> bool:
        return UserTokenType.ANONYMOUS in self.offered_token_types()

    def anonymous_accessible(self) -> bool:
        return bool(self.session and self.session.success)

    def secure_channel_ok(self) -> bool:
        return self.secure_channel is None or self.secure_channel.success

    # --- JSON ----------------------------------------------------------------

    #: Fields added after the dataset schema froze; omitted from the
    #: canonical JSON while unset so the simulated lane's bytes (and
    #: with them the golden digests) are unchanged by their existence.
    _SPARSE_FIELDS = ("error_category",)
    _SPARSE_SESSION_FIELDS = (
        "error_category",
        "details_error",
        "negotiated_policy_uri",
        "negotiated_mode",
        "negotiation_error",
    )

    def to_json_dict(self) -> dict:
        data = _plain(self)
        for key in self._SPARSE_FIELDS:
            if data.get(key) is None:
                data.pop(key, None)
        session = data.get("session")
        if session:
            for key in self._SPARSE_SESSION_FIELDS:
                if session.get(key) is None:
                    session.pop(key, None)
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "HostRecord":
        data = dict(data)
        if data.get("certificate"):
            data["certificate"] = CertificateInfo(**data["certificate"])
        if data.get("secure_channel"):
            data["secure_channel"] = SecureChannelAttempt(**data["secure_channel"])
        if data.get("session"):
            data["session"] = SessionAttempt(**data["session"])
        if data.get("nodes"):
            data["nodes"] = NodeSummary(**data["nodes"])
        data["endpoints"] = [EndpointRecord(**e) for e in data.get("endpoints", [])]
        return cls(**data)


def _plain(value):
    """Plain JSON data for a dataclass: containers copied, leaves shared.

    Dataclasses become dicts and lists become new lists, field by
    field.  The leaves (str, int, float, bool, None) are immutable, so
    unlike the standard library's deep-copying conversion this shares
    them with the record, and the result still owns every container.
    """
    if isinstance(value, list):
        return [_plain(item) for item in value]
    names = getattr(value, "__dataclass_fields__", None)
    if names is None:
        return value
    return {name: _plain(getattr(value, name)) for name in names}


@dataclass
class MeasurementSnapshot:
    """One dated sweep: the unit Figure 2 plots."""

    date: str
    records: list[HostRecord] = field(default_factory=list)
    probed: int = 0
    port_open: int = 0
    excluded: int = 0

    def reachable(self) -> list[HostRecord]:
        return [r for r in self.records if r.is_opcua]

    def servers(self) -> list[HostRecord]:
        """Non-discovery OPC UA servers — the paper's analysis set."""
        return [r for r in self.reachable() if not r.is_discovery_server]

    def discovery_servers(self) -> list[HostRecord]:
        return [r for r in self.reachable() if r.is_discovery_server]

    def date_dt(self) -> datetime:
        return parse_utc(self.date)

    def to_json_dict(self) -> dict:
        """Canonical JSON form: counters plus every record, in the
        engine's canonical record order.  The golden-digest tests and
        the cross-backend benchmarks hash exactly this."""
        return {
            "date": self.date,
            "probed": self.probed,
            "port_open": self.port_open,
            "excluded": self.excluded,
            "records": [record.to_json_dict() for record in self.records],
        }
