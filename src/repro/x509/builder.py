"""Certificate builder for self-signed and CA-signed certificates."""

from __future__ import annotations

import random
from datetime import datetime, timedelta

from repro.crypto.pkcs1 import pkcs1v15_sign
from repro.crypto.rsa import RsaKeyPair, RsaPrivateKey
from repro.x509.certificate import (
    Certificate,
    assemble_certificate,
    build_tbs_certificate,
    parse_certificate,
)
from repro.x509.name import DistinguishedName


class CertificateBuilder:
    """Fluent builder mirroring the common openssl/cryptography flow.

    Example::

        cert = (
            CertificateBuilder()
            .subject(DistinguishedName.build(common_name="device-1"))
            .public_key(keys.public)
            .valid_from(start)
            .valid_for_days(365 * 5)
            .application_uri("urn:device-1")
            .self_sign(keys.private, hash_name="sha256", rng=rng)
        )
    """

    def __init__(self):
        self._subject: DistinguishedName | None = None
        self._issuer: DistinguishedName | None = None
        self._public_key = None
        self._not_before: datetime | None = None
        self._not_after: datetime | None = None
        self._application_uri: str | None = None
        self._serial: int | None = None
        self._is_ca = False

    def subject(self, name: DistinguishedName) -> "CertificateBuilder":
        self._subject = name
        return self

    def issuer(self, name: DistinguishedName) -> "CertificateBuilder":
        self._issuer = name
        return self

    def public_key(self, key) -> "CertificateBuilder":
        self._public_key = key
        return self

    def valid_from(self, moment: datetime) -> "CertificateBuilder":
        self._not_before = moment
        return self

    def valid_for_days(self, days: int) -> "CertificateBuilder":
        if self._not_before is None:
            raise ValueError("set valid_from before valid_for_days")
        self._not_after = self._not_before + timedelta(days=days)
        return self

    def application_uri(self, uri: str) -> "CertificateBuilder":
        self._application_uri = uri
        return self

    def serial_number(self, serial: int) -> "CertificateBuilder":
        self._serial = serial
        return self

    def ca(self, is_ca: bool = True) -> "CertificateBuilder":
        self._is_ca = is_ca
        return self

    # --- signing -------------------------------------------------------------

    def self_sign(
        self, private_key: RsaPrivateKey, hash_name: str, rng: random.Random
    ) -> Certificate:
        issuer = self._issuer or self._subject
        return self._sign(private_key, issuer, hash_name, rng)

    def sign_with_ca(
        self,
        ca_key: RsaPrivateKey,
        ca_subject: DistinguishedName,
        hash_name: str,
        rng: random.Random,
    ) -> Certificate:
        return self._sign(ca_key, ca_subject, hash_name, rng)

    def _sign(
        self,
        signing_key: RsaPrivateKey,
        issuer: DistinguishedName,
        hash_name: str,
        rng: random.Random,
    ) -> Certificate:
        if self._subject is None:
            raise ValueError("certificate requires a subject")
        if self._public_key is None:
            raise ValueError("certificate requires a public key")
        if self._not_before is None or self._not_after is None:
            raise ValueError("certificate requires a validity window")
        serial = self._serial if self._serial is not None else rng.getrandbits(63)
        tbs_der = build_tbs_certificate(
            serial_number=serial,
            hash_name=hash_name,
            issuer=issuer,
            subject=self._subject,
            not_before=self._not_before,
            not_after=self._not_after,
            public_key=self._public_key,
            application_uri=self._application_uri,
            is_ca=self._is_ca,
        )
        signature = pkcs1v15_sign(signing_key, hash_name, tbs_der)
        raw = assemble_certificate(tbs_der, hash_name, signature)
        return parse_certificate(raw)


def make_self_signed(
    keys: RsaKeyPair,
    common_name: str,
    application_uri: str,
    not_before: datetime,
    hash_name: str,
    rng: random.Random,
    organization: str | None = None,
    valid_days: int = 365 * 5,
) -> Certificate:
    """One-call helper used throughout the deployment generator."""
    subject = DistinguishedName.build(
        common_name=common_name, organization=organization
    )
    return (
        CertificateBuilder()
        .subject(subject)
        .public_key(keys.public)
        .valid_from(not_before)
        .valid_for_days(valid_days)
        .application_uri(application_uri)
        .self_sign(keys.private, hash_name=hash_name, rng=rng)
    )
