"""Unit tests for the analysis modules on hand-built records."""

import pytest

from repro.analysis.access import analyze_access_control, classify_system
from repro.analysis.anomalies import analyze_anomalies
from repro.analysis.certs import (
    analyze_certificate_conformance,
    certificate_conformance_class,
)
from repro.analysis.deficits import analyze_deficits
from repro.analysis.modes import analyze_security_modes
from repro.analysis.policies import analyze_security_policies
from repro.analysis.reuse import analyze_certificate_reuse, find_shared_primes
from repro.analysis.rights import analyze_access_rights
from repro.asn1 import der
from repro.scanner.records import (
    CertificateInfo,
    EndpointRecord,
    HostRecord,
    MeasurementSnapshot,
    NodeSummary,
    SecureChannelAttempt,
    SessionAttempt,
)
from repro.secure.policies import (
    POLICY_BASIC128RSA15,
    POLICY_BASIC256SHA256,
    POLICY_NONE,
)
from repro.uabin.enums import MessageSecurityMode, UserTokenType
from repro.util.rng import DeterministicRng
from repro.util.simtime import parse_utc
from repro.x509.builder import make_self_signed


def make_record(
    ip=1,
    modes_policies=((MessageSecurityMode.NONE, POLICY_NONE.uri),),
    tokens=(UserTokenType.ANONYMOUS,),
    cert: CertificateInfo | None = None,
    session_ok=False,
    sc_ok=True,
    namespaces=(),
    nodes=None,
    asn=64700,
    application_uri="urn:generic:ua-server:device:1",
):
    endpoints = [
        EndpointRecord(
            endpoint_url=f"opc.tcp://10.0.0.{ip}:4840/",
            security_mode=int(mode),
            security_policy_uri=policy_uri,
            token_types=[int(t) for t in tokens],
        )
        for mode, policy_uri in modes_policies
    ]
    secure = None
    has_secure = any(
        mode != MessageSecurityMode.NONE for mode, _ in modes_policies
    )
    if has_secure:
        secure = SecureChannelAttempt(
            security_policy_uri=modes_policies[-1][1],
            security_mode=int(modes_policies[-1][0]),
            success=sc_ok,
        )
    session = SessionAttempt(
        attempted=UserTokenType.ANONYMOUS in tokens,
        token_type=int(UserTokenType.ANONYMOUS),
        success=session_ok,
    )
    return HostRecord(
        ip=ip,
        port=4840,
        asn=asn,
        timestamp="2020-08-30T00:00:00",
        tcp_open=True,
        is_opcua=True,
        application_uri=application_uri,
        application_type=0,
        endpoints=endpoints,
        certificate=cert,
        secure_channel=secure,
        session=session,
        namespaces=list(namespaces),
        nodes=nodes,
    )


def make_cert(hash_name="sha1", bits=2048, thumb="aa", modulus=0xC0FFEE):
    return CertificateInfo(
        der_hex="",
        thumbprint_hex=thumb,
        signature_hash=hash_name,
        key_bits=bits,
        subject="O=Acme,CN=device",
        issuer="O=Acme,CN=device",
        not_before="2019-06-01T00:00:00",
        not_after="2029-06-01T00:00:00",
        application_uri=None,
        self_signed=True,
        signature_valid=True,
        modulus_hex=f"{modulus:x}",
    )


class TestModeAnalysis:
    def test_none_only(self):
        stats = analyze_security_modes([make_record()])
        assert stats.supported["N"] == 1
        assert stats.most_secure["N"] == 1
        assert stats.none_only == 1

    def test_mixed_modes(self):
        record = make_record(
            modes_policies=(
                (MessageSecurityMode.NONE, POLICY_NONE.uri),
                (MessageSecurityMode.SIGN, POLICY_BASIC256SHA256.uri),
                (
                    MessageSecurityMode.SIGN_AND_ENCRYPT,
                    POLICY_BASIC256SHA256.uri,
                ),
            )
        )
        stats = analyze_security_modes([record])
        assert stats.least_secure["N"] == 1
        assert stats.most_secure["S&E"] == 1
        assert stats.supports_secure_mode == 1


class TestPolicyAnalysis:
    def test_deprecated_detection(self):
        record = make_record(
            modes_policies=(
                (MessageSecurityMode.NONE, POLICY_NONE.uri),
                (MessageSecurityMode.SIGN, POLICY_BASIC128RSA15.uri),
            )
        )
        stats = analyze_security_policies([record])
        assert stats.supports_deprecated == 1
        assert stats.deprecated_as_best == 1
        assert stats.enforce_secure == 0

    def test_enforce_secure(self):
        record = make_record(
            modes_policies=(
                (MessageSecurityMode.SIGN, POLICY_BASIC256SHA256.uri),
            )
        )
        stats = analyze_security_policies([record])
        assert stats.enforce_secure == 1
        assert stats.secure_available == 1

    def test_unknown_policy_uri_ignored(self):
        record = make_record(
            modes_policies=((MessageSecurityMode.SIGN, "http://bogus"),)
        )
        stats = analyze_security_policies([record])
        assert stats.total_servers == 0


class TestCertConformance:
    @pytest.mark.parametrize(
        "policy,hash_name,bits,expected",
        [
            (POLICY_BASIC256SHA256, "sha256", 2048, "match"),
            (POLICY_BASIC256SHA256, "sha1", 2048, "weak"),
            (POLICY_BASIC256SHA256, "md5", 2048, "weak"),
            (POLICY_BASIC256SHA256, "sha256", 1024, "weak"),
            (POLICY_BASIC128RSA15, "sha256", 2048, "strong"),
            (POLICY_BASIC128RSA15, "sha1", 2048, "match"),
            (POLICY_BASIC128RSA15, "md5", 1024, "weak"),
            (POLICY_NONE, "md5", 512, "match"),
        ],
    )
    def test_classification(self, policy, hash_name, bits, expected):
        assert (
            certificate_conformance_class(policy, hash_name, bits) == expected
        )

    def test_bucket_counting(self):
        record = make_record(
            modes_policies=(
                (MessageSecurityMode.SIGN, POLICY_BASIC256SHA256.uri),
            ),
            cert=make_cert("sha1", 2048),
        )
        conformance = analyze_certificate_conformance([record])
        assert conformance.buckets["S2"].too_weak == 1
        assert conformance.weaker_than_best_policy == 1

    def test_self_signed_counting(self):
        record = make_record(cert=make_cert())
        conformance = analyze_certificate_conformance([record])
        assert conformance.self_signed == 1
        assert conformance.ca_signed == 0


class TestReuse:
    def test_groups_by_thumbprint(self):
        records = [
            make_record(ip=i, cert=make_cert(thumb="shared", modulus=999), asn=a)
            for i, a in ((1, 1), (2, 2), (3, 3))
        ] + [make_record(ip=4, cert=make_cert(thumb="solo", modulus=1001))]
        reuse = analyze_certificate_reuse(records)
        assert reuse.distinct_certificates == 2
        assert len(reuse.reused_on_3plus) == 1
        assert reuse.largest_group.host_count == 3
        assert reuse.largest_group.asn_count == 3

    def test_shared_primes_detected(self):
        p, q1, q2 = 1000003, 1000033, 1000037
        records = [
            make_record(ip=1, cert=make_cert(thumb="a", modulus=p * q1)),
            make_record(ip=2, cert=make_cert(thumb="b", modulus=p * q2)),
        ]
        assert find_shared_primes(records) == 1

    def test_no_shared_primes_for_coprime_keys(self):
        records = [
            make_record(ip=1, cert=make_cert(thumb="a", modulus=15)),
            make_record(ip=2, cert=make_cert(thumb="b", modulus=77)),
        ]
        assert find_shared_primes(records) == 0


class TestAccessAnalysis:
    def test_classification_heuristic(self):
        assert classify_system(["http://PLCopen.org/OpcUa/IEC61131-3/"]) == (
            "production"
        )
        assert classify_system(["http://examples.freeopcua.github.io"]) == "test"
        assert classify_system(["http://opcfoundation.org/UA/"]) == "unclassified"
        assert classify_system([]) == "unclassified"

    def test_test_marker_beats_production_marker(self):
        namespaces = [
            "http://examples.freeopcua.github.io",
            "http://PLCopen.org/OpcUa/IEC61131-3/",
        ]
        assert classify_system(namespaces) == "test"

    def test_accessible_counted(self):
        record = make_record(
            session_ok=True,
            namespaces=["http://PLCopen.org/OpcUa/IEC61131-3/"],
        )
        access = analyze_access_control([record])
        assert access.accessible == 1
        assert access.production == 1

    def test_sc_rejection_reason(self):
        record = make_record(
            modes_policies=(
                (MessageSecurityMode.SIGN, POLICY_BASIC256SHA256.uri),
            ),
            tokens=(UserTokenType.USERNAME,),
            sc_ok=False,
        )
        access = analyze_access_control([record])
        assert access.rejected_secure_channel == 1
        assert access.channel_ok == 0

    def test_auth_rejection_reason(self):
        record = make_record(tokens=(UserTokenType.USERNAME,))
        access = analyze_access_control([record])
        assert access.rejected_authentication == 1


class TestRights:
    def test_cdf_values(self):
        records = []
        for i, (r, w, e) in enumerate([(1.0, 0.2, 0.9), (0.98, 0.0, 0.5)]):
            records.append(
                make_record(
                    ip=i,
                    session_ok=True,
                    nodes=NodeSummary(
                        total_nodes=100,
                        variables=50,
                        methods=10,
                        readable_variables=int(50 * r),
                        writable_variables=int(50 * w),
                        executable_methods=int(10 * e),
                    ),
                )
            )
        cdf = analyze_access_rights(records)
        assert cdf.hosts_analyzed == 2
        assert cdf.fraction_of_hosts_above("writable", 0.10) == 0.5
        assert cdf.fraction_of_hosts_above("readable", 0.97) == 1.0

    def test_inaccessible_hosts_excluded(self):
        cdf = analyze_access_rights([make_record(session_ok=False)])
        assert cdf.hosts_analyzed == 0


class TestDeficits:
    def test_none_only_deficient(self):
        summary = analyze_deficits([make_record()])
        assert summary.none_only == 1
        assert summary.deficient == 1

    def test_secure_host_not_deficient(self):
        record = make_record(
            modes_policies=(
                (MessageSecurityMode.SIGN, POLICY_BASIC256SHA256.uri),
            ),
            tokens=(UserTokenType.USERNAME,),
            cert=make_cert("sha256", 2048),
        )
        summary = analyze_deficits([record])
        assert summary.deficient == 0

    def test_weak_cert_deficient(self):
        record = make_record(
            modes_policies=(
                (MessageSecurityMode.SIGN, POLICY_BASIC256SHA256.uri),
            ),
            tokens=(UserTokenType.USERNAME,),
            cert=make_cert("sha1", 2048),
        )
        summary = analyze_deficits([record])
        assert summary.weak_certificate == 1
        assert summary.deficient == 1

    def test_reuse_deficient(self):
        records = [
            make_record(
                ip=i,
                modes_policies=(
                    (MessageSecurityMode.SIGN, POLICY_BASIC256SHA256.uri),
                ),
                tokens=(UserTokenType.USERNAME,),
                cert=make_cert("sha256", 2048, thumb="dup", modulus=123457),
            )
            for i in range(3)
        ]
        summary = analyze_deficits(records)
        assert summary.certificate_reuse == 3
        assert summary.deficient == 3


class TestEarlyValidityYears:
    def test_certificate_valid_from_year_5(self, rsa_768):
        """A served certificate may claim any GeneralizedTime; the
        record must store its dates so that the analyses read them
        back."""
        cert = make_self_signed(
            rsa_768,
            common_name="device",
            application_uri="urn:acme:device",
            not_before=parse_utc("2019-06-01"),
            hash_name="sha256",
            rng=DeterministicRng(5, "year-5"),
        )
        tbs, sig_alg, sig_bits = der.decode_der(cert.raw_der)
        fields = list(tbs)
        fields[4] = der.Sequence([  # TBSCertificate.validity
            der.RawTlv(der.TAG_GENERALIZED_TIME, b"00050101000000Z"),
            der.RawTlv(der.TAG_UTC_TIME, b"300101000000Z"),
        ])
        info = CertificateInfo.from_der(der.encode_der(
            der.Sequence([der.Sequence(fields), sig_alg, sig_bits])
        ))
        assert info.not_before == "0005-01-01T00:00:00"
        assert info.not_before_dt().year == 5
        snapshot = MeasurementSnapshot(
            date="2020-08-30", records=[make_record(cert=info)]
        )
        stats = analyze_anomalies([snapshot])
        assert stats.not_yet_valid_certificates == 0
        assert stats.expired_certificates == 0


class TestValidityPast2049:
    def test_certificate_valid_until_2055(self, rsa_768):
        """From 2050 on a validity time is a GeneralizedTime (RFC 5280
        §4.1.2.5); a two-digit UTCTime would read back as 1955 and
        count the certificate expired."""
        not_before = parse_utc("2020-01-01")
        cert = make_self_signed(
            rsa_768,
            common_name="device",
            application_uri="urn:acme:device",
            not_before=not_before,
            hash_name="sha256",
            rng=DeterministicRng(2055, "year-2055"),
            valid_days=(parse_utc("2055-01-01") - not_before).days,
        )
        info = CertificateInfo.from_der(cert.raw_der)
        assert info.not_after == "2055-01-01T00:00:00"
        snapshot = MeasurementSnapshot(
            date="2020-08-30", records=[make_record(cert=info)]
        )
        assert analyze_anomalies([snapshot]).expired_certificates == 0
