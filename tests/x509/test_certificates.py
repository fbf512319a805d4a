from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.asn1 import der, oids
from repro.scanner.records import CertificateInfo
from repro.util.rng import DeterministicRng
from repro.util.simtime import parse_utc
from repro.x509 import (
    CertificateBuilder,
    CertificateError,
    DistinguishedName,
    parse_certificate,
    sha1_thumbprint,
    verify_certificate_signature,
    verify_validity,
)
from repro.x509.builder import make_self_signed
from repro.x509.fingerprint import thumbprint_hex


@pytest.fixture(scope="module")
def cert_rng():
    return DeterministicRng(11, "x509-tests")


@pytest.fixture(scope="module")
def basic_cert(rsa_1024, cert_rng):
    return make_self_signed(
        rsa_1024,
        common_name="device-1",
        application_uri="urn:test:device-1",
        not_before=parse_utc("2019-06-01"),
        hash_name="sha256",
        rng=cert_rng.substream("basic"),
        organization="Test Manufacturer GmbH",
    )


class TestDistinguishedName:
    def test_build_and_render(self):
        name = DistinguishedName.build(common_name="x", organization="Acme")
        assert name.rfc4514() == "O=Acme,CN=x"

    def test_parse_rfc4514(self):
        name = DistinguishedName.parse_rfc4514("O=Acme, CN=x")
        assert name.common_name == "x"
        assert name.organization == "Acme"

    def test_parse_rejects_unknown_attribute(self):
        with pytest.raises(ValueError):
            DistinguishedName.parse_rfc4514("XX=1")

    def test_der_round_trip(self):
        name = DistinguishedName.build(
            common_name="dev", organization="O", country="DE"
        )
        assert DistinguishedName.from_der_value(name.to_der_value()) == name

    def test_get_missing_returns_none(self):
        assert DistinguishedName.build(common_name="x").organization is None


class TestBuildParse:
    def test_round_trip_preserves_subject(self, basic_cert):
        parsed = parse_certificate(basic_cert.raw_der)
        assert parsed.subject.common_name == "device-1"
        assert parsed.subject.organization == "Test Manufacturer GmbH"

    def test_self_signed_detected(self, basic_cert):
        assert basic_cert.self_signed

    def test_application_uri_recovered(self, basic_cert):
        assert basic_cert.application_uri == "urn:test:device-1"

    def test_signature_hash_recovered(self, basic_cert):
        assert basic_cert.signature_hash == "sha256"

    def test_key_bits_recovered(self, basic_cert):
        assert basic_cert.key_bits == 1024

    def test_validity_window(self, basic_cert):
        assert basic_cert.not_before == parse_utc("2019-06-01")
        assert basic_cert.not_after == basic_cert.not_before + timedelta(days=365 * 5)

    def test_signature_verifies(self, basic_cert):
        assert verify_certificate_signature(basic_cert)

    def test_tampered_cert_fails_verification(self, basic_cert):
        raw = bytearray(basic_cert.raw_der)
        # Flip a byte inside the TBS region (after headers).
        raw[40] ^= 0x01
        try:
            tampered = parse_certificate(bytes(raw))
        except CertificateError:
            return  # structurally broken is also a pass
        assert not verify_certificate_signature(tampered)

    @pytest.mark.parametrize("hash_name", ["md5", "sha1", "sha256"])
    def test_all_signature_hashes(self, rsa_1024, cert_rng, hash_name):
        cert = make_self_signed(
            rsa_1024,
            common_name="h",
            application_uri="urn:h",
            not_before=parse_utc("2020-01-01"),
            hash_name=hash_name,
            rng=cert_rng.substream(f"hash-{hash_name}"),
        )
        assert cert.signature_hash == hash_name
        assert verify_certificate_signature(cert)

    def test_garbage_rejected(self):
        with pytest.raises(CertificateError):
            parse_certificate(b"not a certificate")

    def test_ca_signed_certificate(self, rsa_1024, rsa_768, cert_rng):
        ca_name = DistinguishedName.build(common_name="Test CA", organization="CA Org")
        cert = (
            CertificateBuilder()
            .subject(DistinguishedName.build(common_name="leaf"))
            .public_key(rsa_768.public)
            .valid_from(parse_utc("2020-01-01"))
            .valid_for_days(365)
            .sign_with_ca(rsa_1024.private, ca_name, "sha256", cert_rng.substream("ca"))
        )
        assert not cert.self_signed
        assert cert.issuer.common_name == "Test CA"
        assert verify_certificate_signature(cert, rsa_1024.public)
        assert not verify_certificate_signature(cert)  # own key is wrong signer

    def test_serial_number_controllable(self, rsa_768, cert_rng):
        cert = (
            CertificateBuilder()
            .subject(DistinguishedName.build(common_name="s"))
            .public_key(rsa_768.public)
            .valid_from(parse_utc("2020-01-01"))
            .valid_for_days(1)
            .serial_number(12345)
            .self_sign(rsa_768.private, "sha1", cert_rng.substream("serial"))
        )
        assert cert.serial_number == 12345

    def test_missing_subject_rejected(self, rsa_768, cert_rng):
        builder = CertificateBuilder().public_key(rsa_768.public)
        builder.valid_from(parse_utc("2020-01-01")).valid_for_days(1)
        with pytest.raises(ValueError):
            builder.self_sign(rsa_768.private, "sha256", cert_rng.substream("x"))


class TestValidity:
    def test_inside_window(self, basic_cert):
        assert verify_validity(basic_cert, parse_utc("2020-08-30"))

    def test_before_window(self, basic_cert):
        assert not verify_validity(basic_cert, parse_utc("2019-01-01"))

    def test_after_window(self, basic_cert):
        assert not verify_validity(basic_cert, parse_utc("2030-01-01"))


class TestThumbprints:
    def test_deterministic(self, basic_cert):
        assert sha1_thumbprint(basic_cert) == sha1_thumbprint(basic_cert.raw_der)

    def test_length(self, basic_cert):
        assert len(sha1_thumbprint(basic_cert)) == 20

    def test_hex_form(self, basic_cert):
        assert thumbprint_hex(basic_cert) == sha1_thumbprint(basic_cert).hex()

    def test_distinct_certs_distinct_thumbprints(self, basic_cert, rsa_768, cert_rng):
        other = make_self_signed(
            rsa_768,
            common_name="other",
            application_uri="urn:other",
            not_before=parse_utc("2020-01-01"),
            hash_name="sha1",
            rng=cert_rng.substream("other"),
        )
        assert sha1_thumbprint(basic_cert) != sha1_thumbprint(other)


def _rebuilt(cert, tbs_fields=(), sig_alg=None):
    """``cert``'s DER with TBSCertificate fields (by index) or the
    outer signature algorithm replaced; the signature stays."""
    tbs, outer_sig_alg, sig_bits = der.decode_der(cert.raw_der)
    fields = list(tbs)
    for index, value in tbs_fields:
        fields[index] = value
    if sig_alg is None:
        sig_alg = outer_sig_alg
    return der.encode_der(
        der.Sequence([der.Sequence(fields), sig_alg, sig_bits])
    )


def _rsa_spki(rsa_key):
    algorithm = der.Sequence(
        [der.ObjectIdentifier(oids.RSA_ENCRYPTION), der.Null()]
    )
    return der.Sequence([algorithm, der.BitString(der.encode_der(rsa_key))])


_SUBJECT, _VALIDITY, _SPKI = 5, 4, 6  # TBSCertificate field indices
_NOT_AN_INTEGER = der.RawTlv(0x1E, b"\x00\x01")  # a BMPString


def _nested_sequences(depth):
    value = der.encode_der(der.Null())
    for _ in range(depth):
        value = der.encode_der(der.RawTlv(der.TAG_SEQUENCE, value))
    return value


#: One certificate per way a malformed DER used to escape
#: ``CertificateInfo.from_der``; the comment names what escaped.
_MALFORMED = {
    # UnicodeDecodeError, inside the DER decoder.
    "subject-not-utf8": lambda cert: _rebuilt(
        cert,
        tbs_fields=[(_SUBJECT, der.Sequence([der.SetOf([der.Sequence([
            der.ObjectIdentifier(oids.COMMON_NAME),
            der.RawTlv(der.TAG_UTF8_STRING, b"\xa5device"),
        ])])]))],
    ),
    # ValueError from strptime, inside the DER decoder.
    "utctime-month-13": lambda cert: _rebuilt(
        cert,
        tbs_fields=[(_VALIDITY, der.Sequence([
            der.RawTlv(der.TAG_UTC_TIME, b"201301000000Z"),
            der.RawTlv(der.TAG_UTC_TIME, b"301301000000Z"),
        ]))],
    ),
    # Asn1Error, from a nested decode outside the guarded region.
    "key-not-der": lambda cert: _rebuilt(
        cert,
        tbs_fields=[(_SPKI, der.Sequence([
            der.Sequence([der.ObjectIdentifier(oids.RSA_ENCRYPTION)]),
            der.BitString(b"\x30\x05\x02"),
        ]))],
    ),
    # TypeError on ``sig_alg[0]``.
    "sig-alg-not-sequence": lambda cert: _rebuilt(cert, sig_alg=5),
    # AttributeError on ``sig_alg[0].dotted``.
    "sig-alg-without-oid": lambda cert: _rebuilt(
        cert, sig_alg=der.Sequence([der.Null()])
    ),
    # AttributeError on ``.bit_length``, once the record is built.
    "modulus-not-integer": lambda cert: _rebuilt(
        cert,
        tbs_fields=[(_SPKI, _rsa_spki(der.Sequence([
            _NOT_AN_INTEGER, cert.public_key.e,
        ])))],
    ),
    # TypeError from pow(), when the signature is verified.
    "exponent-not-integer": lambda cert: _rebuilt(
        cert,
        tbs_fields=[(_SPKI, _rsa_spki(der.Sequence([
            cert.public_key.n, _NOT_AN_INTEGER,
        ])))],
    ),
    # RecursionError, inside the DER decoder.
    "nested-too-deep": lambda cert: _nested_sequences(1500),
}


@st.composite
def _mutations(draw, original: bytes) -> bytes:
    """Byte overwrites, a truncation, or a short splice of ``original``."""
    raw = bytearray(original)
    kind = draw(st.sampled_from(["overwrite", "truncate", "splice"]))
    if kind == "overwrite":
        for _ in range(draw(st.integers(1, 3))):
            raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    elif kind == "truncate":
        del raw[draw(st.integers(0, len(raw) - 1)) :]
    else:
        at = draw(st.integers(0, len(raw)))
        raw[at:at] = draw(st.binary(min_size=1, max_size=8))
    return bytes(raw)


class TestMalformedDer:
    """A served certificate is peer bytes: parsing it may reject it
    with :class:`CertificateError` and must never raise anything else,
    or one bad server would abort a whole sweep."""

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_pinned_escape_rejected(self, basic_cert, case):
        raw = _MALFORMED[case](basic_cert)
        with pytest.raises(CertificateError):
            parse_certificate(raw)
        assert CertificateInfo.from_der(raw) is None

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_der_yields_info_or_none(self, basic_cert, data):
        raw = data.draw(_mutations(basic_cert.raw_der))
        info = CertificateInfo.from_der(raw)
        assert info is None or isinstance(info, CertificateInfo)


class TestCrossValidation:
    """Our DER output must parse in the `cryptography` package."""

    def test_cert_loads_in_cryptography(self, basic_cert):
        from cryptography import x509 as c_x509

        loaded = c_x509.load_der_x509_certificate(basic_cert.raw_der)
        assert loaded.serial_number == basic_cert.serial_number
        assert (
            loaded.signature_hash_algorithm.name.replace("-", "").lower() == "sha256"
        )

    def test_san_uri_visible_to_cryptography(self, basic_cert):
        from cryptography import x509 as c_x509

        loaded = c_x509.load_der_x509_certificate(basic_cert.raw_der)
        san = loaded.extensions.get_extension_for_class(c_x509.SubjectAlternativeName)
        uris = san.value.get_values_for_type(c_x509.UniformResourceIdentifier)
        assert uris == ["urn:test:device-1"]

    def test_cryptography_verifies_our_signature(self, basic_cert, rsa_1024):
        from cryptography.hazmat.primitives import hashes as c_hashes
        from cryptography.hazmat.primitives.asymmetric import (
            padding as c_padding,
            rsa as c_rsa,
        )

        pub = c_rsa.RSAPublicNumbers(
            rsa_1024.private.e, rsa_1024.private.n
        ).public_key()
        pub.verify(
            basic_cert.signature,
            basic_cert.tbs_der,
            c_padding.PKCS1v15(),
            c_hashes.SHA256(),
        )
