"""X.509 v3 certificate structure, DER serialization, and parsing.

The parsed representation keeps exactly what the study's analysis
needs: signature hash function, public-key modulus length, validity
window (``NotBefore`` drives §5.5's certificate-age analysis), subject
and issuer names (the manufacturer attribution of Fig. 5 reads the
subject), the ApplicationURI SAN, and the raw DER for thumbprinting.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

from repro.asn1 import der, oids
from repro.crypto.cache import KeyedOpCache
from repro.crypto.rsa import RsaPublicKey
from repro.x509.name import DistinguishedName

# DER-keyed parse memo: the scanner sees the same few certificates
# thousands of times (every server presents one per handshake, and
# record assembly re-parses it), and :class:`Certificate` is frozen,
# so sharing one parsed instance per DER is observationally identical.
_PARSED_CERTIFICATES = KeyedOpCache("x509-parse", maxsize=4096)


class CertificateError(Exception):
    """Malformed or unsupported certificate material."""


@dataclass(frozen=True)
class Certificate:
    """A parsed (or freshly built) X.509 v3 certificate."""

    serial_number: int
    signature_hash: str  # "md5" | "sha1" | "sha256"
    issuer: DistinguishedName
    subject: DistinguishedName
    not_before: datetime
    not_after: datetime
    public_key: RsaPublicKey
    application_uri: str | None
    is_ca: bool
    signature: bytes
    tbs_der: bytes
    raw_der: bytes

    @property
    def key_bits(self) -> int:
        return self.public_key.bit_length

    @property
    def self_signed(self) -> bool:
        return self.issuer == self.subject

    def __repr__(self) -> str:  # keep reprs short in test output
        return (
            f"Certificate(subject={self.subject.rfc4514()!r}, "
            f"hash={self.signature_hash}, bits={self.key_bits})"
        )


def _public_key_to_spki(key: RsaPublicKey) -> der.Sequence:
    algorithm = der.Sequence(
        [der.ObjectIdentifier(oids.RSA_ENCRYPTION), der.Null()]
    )
    rsa_key = der.Sequence([key.n, key.e])
    return der.Sequence([algorithm, der.BitString(der.encode_der(rsa_key))])


def _spki_to_public_key(spki: der.Sequence) -> RsaPublicKey:
    algorithm = spki[0]
    if algorithm[0].dotted != oids.RSA_ENCRYPTION:
        raise CertificateError(
            f"unsupported key algorithm: {algorithm[0].dotted}"
        )
    bit_string = spki[1]
    rsa_key = der.decode_der(bit_string.data)
    n, e = rsa_key[0], rsa_key[1]
    if type(n) is not int or type(e) is not int:
        raise CertificateError("RSA public key fields must be INTEGERs")
    return RsaPublicKey(n=n, e=e)


def _signature_algorithm(hash_name: str) -> der.Sequence:
    oid = oids.HASH_SIGNATURE_OIDS.get(hash_name)
    if oid is None:
        raise CertificateError(f"no signature OID for hash {hash_name!r}")
    return der.Sequence([der.ObjectIdentifier(oid), der.Null()])


def build_tbs_certificate(
    serial_number: int,
    hash_name: str,
    issuer: DistinguishedName,
    subject: DistinguishedName,
    not_before: datetime,
    not_after: datetime,
    public_key: RsaPublicKey,
    application_uri: str | None,
    is_ca: bool,
) -> bytes:
    """Serialize the TBSCertificate (the part that gets signed)."""
    extensions = []
    if application_uri is not None:
        # GeneralName uniformResourceIdentifier is [6] IA5String,
        # encoded primitively inside the SAN GeneralNames sequence.
        general_names = der.RawTlv(
            der.TAG_SEQUENCE,
            der.encode_der(
                der.ContextTag(6, primitive_data=application_uri.encode("ascii"))
            ),
        )
        extensions.append(
            der.Sequence(
                [
                    der.ObjectIdentifier(oids.SUBJECT_ALT_NAME),
                    der.OctetString(der.encode_der(general_names)),
                ]
            )
        )
    basic = der.Sequence([True]) if is_ca else der.Sequence([])
    extensions.append(
        der.Sequence(
            [
                der.ObjectIdentifier(oids.BASIC_CONSTRAINTS),
                True,  # critical
                der.OctetString(der.encode_der(basic)),
            ]
        )
    )
    tbs = der.Sequence(
        [
            der.ContextTag(0, inner=2),  # version v3
            serial_number,
            _signature_algorithm(hash_name),
            issuer.to_der_value(),
            der.Sequence([_validity_time(not_before), _validity_time(not_after)]),
            subject.to_der_value(),
            _public_key_to_spki(public_key),
            der.ContextTag(3, inner=der.Sequence(extensions)),
        ]
    )
    return der.encode_der(tbs)


def _validity_time(moment: datetime):
    """RFC 5280 §4.1.2.5: UTCTime for 1950–2049, GeneralizedTime
    otherwise."""
    if 1950 <= moment.astimezone(timezone.utc).year <= 2049:
        return der.UtcTime(moment)
    return der.GeneralizedTime(moment)


def assemble_certificate(tbs_der: bytes, hash_name: str, signature: bytes) -> bytes:
    """Wrap a signed TBSCertificate into the outer Certificate DER."""
    body = (
        tbs_der
        + der.encode_der(_signature_algorithm(hash_name))
        + der.encode_der(der.BitString(signature))
    )
    return bytes([der.TAG_SEQUENCE]) + _der_length(len(body)) + body


def _der_length(length: int) -> bytes:
    if length < 0x80:
        return bytes([length])
    body = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def parse_certificate(raw_der: bytes) -> Certificate:
    """Parse a DER certificate into the analysis-facing structure."""
    if type(raw_der) is bytes:
        cached = _PARSED_CERTIFICATES.get(raw_der)
        if cached is not None:
            return cached
        certificate = _parse_certificate(raw_der)
        _PARSED_CERTIFICATES.put(raw_der, certificate)
        return certificate
    return _parse_certificate(raw_der)


def _parse_certificate(raw_der: bytes) -> Certificate:
    try:
        outer, consumed = der.decode_der(raw_der, allow_trailing=True)
    except der.Asn1Error as exc:
        raise CertificateError(f"undecodable certificate: {exc}") from exc
    raw_der = raw_der[:consumed]
    if not isinstance(outer, der.Sequence) or len(outer) != 3:
        raise CertificateError("certificate must be a 3-element SEQUENCE")
    tbs, sig_alg, sig_bits = outer
    if not isinstance(sig_bits, der.BitString):
        raise CertificateError("signature must be a BIT STRING")

    # A peer can put any DER value in any position, so reading a field
    # of the wrong shape is malformed input, reported as such.
    try:
        sig_oid = sig_alg[0].dotted
        hash_name = oids.SIGNATURE_HASHES.get(sig_oid)
        if hash_name is None:
            raise CertificateError(
                f"unsupported signature algorithm: {sig_oid}"
            )

        # Recover the exact TBS bytes for signature verification.
        tbs_der = _extract_first_tlv(raw_der)

        fields = list(tbs)
        index = 0
        if isinstance(fields[0], der.ContextTag) and fields[0].number == 0:
            if fields[0].inner != 2:
                raise CertificateError(
                    f"unsupported X.509 version: {fields[0].inner}"
                )
            index = 1
        serial = fields[index]
        issuer = DistinguishedName.from_der_value(fields[index + 2])
        validity = fields[index + 3]
        subject = DistinguishedName.from_der_value(fields[index + 4])
        public_key = _spki_to_public_key(fields[index + 5])

        not_before = _time_value(validity[0])
        not_after = _time_value(validity[1])

        application_uri = None
        is_ca = False
        for field_value in fields[index + 6 :]:
            if isinstance(field_value, der.ContextTag) and field_value.number == 3:
                application_uri, is_ca = _parse_extensions(field_value.inner)
    except (
        der.Asn1Error,
        ValueError,
        IndexError,
        TypeError,
        AttributeError,
    ) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc

    return Certificate(
        serial_number=serial,
        signature_hash=hash_name,
        issuer=issuer,
        subject=subject,
        not_before=not_before,
        not_after=not_after,
        public_key=public_key,
        application_uri=application_uri,
        is_ca=is_ca,
        signature=sig_bits.data,
        tbs_der=tbs_der,
        raw_der=raw_der,
    )


def _time_value(value) -> datetime:
    if isinstance(value, (der.UtcTime, der.GeneralizedTime)):
        return value.moment
    raise CertificateError("unsupported validity time encoding")


def _parse_extensions(extensions) -> tuple[str | None, bool]:
    application_uri = None
    is_ca = False
    for ext in extensions:
        ext_oid = ext[0].dotted
        payload = ext[-1]
        if not isinstance(payload, der.OctetString):
            raise CertificateError("extension value must be an OCTET STRING")
        if ext_oid == oids.SUBJECT_ALT_NAME:
            names = der.decode_der(payload.data)
            for name in _iter_general_names(names):
                if isinstance(name, der.ContextTag) and name.number == 6:
                    application_uri = name.primitive_data.decode("ascii")
        elif ext_oid == oids.BASIC_CONSTRAINTS:
            basic = der.decode_der(payload.data)
            if len(basic) >= 1 and basic[0] is True:
                is_ca = True
    return application_uri, is_ca


def _iter_general_names(names):
    if isinstance(names, der.Sequence):
        return iter(names)
    if isinstance(names, der.RawTlv) and names.tag == der.TAG_SEQUENCE:
        value = der.decode_der(
            bytes([der.TAG_SEQUENCE]) + _der_length(len(names.payload)) + names.payload
        )
        return iter(value)
    raise CertificateError("malformed GeneralNames")


def _extract_first_tlv(raw_der: bytes) -> bytes:
    """Return the DER bytes of the TBSCertificate inside ``raw_der``."""
    # Skip the outer SEQUENCE header.
    pos = 1
    first = raw_der[pos]
    pos += 1
    if first & 0x80:
        pos += first & 0x7F
    # pos now points at the TBSCertificate TLV.
    start = pos
    tag = raw_der[pos]
    pos += 1
    length_byte = raw_der[pos]
    pos += 1
    if length_byte & 0x80:
        count = length_byte & 0x7F
        length = int.from_bytes(raw_der[pos : pos + count], "big")
        pos += count
    else:
        length = length_byte
    if tag != der.TAG_SEQUENCE:
        raise CertificateError("TBSCertificate must be a SEQUENCE")
    return raw_der[start : pos + length]
