"""Configuration archetypes: policy groups and certificate classes.

The policy groups are the exact solution of the paper's Figure 3
marginals (supported / least-secure / most-secure counts per security
policy), derived in DESIGN.md §5:

=====  ======================  =====  ==========  ==========
group  policy set              count  least       most
=====  ======================  =====  ==========  ==========
PA     {N}                     270    N           N
P1     {N, D1}                 24     N           D1
P2     {N, D1, D2}             243    N           D2
P3     {N, D2}                 13     N           D2
P4     {N, D1, D2, S2}         435*   N           S2
P6     {N, S2}                 42     N           S2
P8     {N, D2, S2, S3}         8      N           S3
Q1     {D1, D2, S2}            13     D1          S2
Q2     {D2, S2}                50     D2          S2
Q3     {S2}                    16     S2          S2
=====  ======================  =====  ==========  ==========

(* 10 of the P4 hosts additionally announce S1, satisfying S1's
supported count of 10 with zero least/most appearances.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.secure.policies import (
    POLICY_AES128_SHA256_RSAOAEP,
    POLICY_AES256_SHA256_RSAPSS,
    POLICY_BASIC128RSA15,
    POLICY_BASIC256,
    POLICY_BASIC256SHA256,
    POLICY_NONE,
    SecurityPolicy,
)


@dataclass(frozen=True)
class PolicyGroup:
    """One archetypal security-policy configuration."""

    key: str
    policies: tuple[SecurityPolicy, ...]
    target_count: int


POLICY_GROUPS: dict[str, PolicyGroup] = {
    group.key: group
    for group in (
        PolicyGroup("PA", (POLICY_NONE,), 270),
        PolicyGroup("P1", (POLICY_NONE, POLICY_BASIC128RSA15), 24),
        PolicyGroup(
            "P2", (POLICY_NONE, POLICY_BASIC128RSA15, POLICY_BASIC256), 243
        ),
        PolicyGroup("P3", (POLICY_NONE, POLICY_BASIC256), 13),
        PolicyGroup(
            "P4",
            (
                POLICY_NONE,
                POLICY_BASIC128RSA15,
                POLICY_BASIC256,
                POLICY_BASIC256SHA256,
            ),
            425,
        ),
        # The 10 S1-announcing hosts are a separate group so the S1
        # supported count lands exactly.
        PolicyGroup(
            "P4s1",
            (
                POLICY_NONE,
                POLICY_BASIC128RSA15,
                POLICY_BASIC256,
                POLICY_AES128_SHA256_RSAOAEP,
                POLICY_BASIC256SHA256,
            ),
            10,
        ),
        PolicyGroup("P6", (POLICY_NONE, POLICY_BASIC256SHA256), 42),
        PolicyGroup(
            "P8",
            (
                POLICY_NONE,
                POLICY_BASIC256,
                POLICY_BASIC256SHA256,
                POLICY_AES256_SHA256_RSAPSS,
            ),
            8,
        ),
        PolicyGroup(
            "Q1", (POLICY_BASIC128RSA15, POLICY_BASIC256, POLICY_BASIC256SHA256), 13
        ),
        PolicyGroup("Q2", (POLICY_BASIC256, POLICY_BASIC256SHA256), 50),
        PolicyGroup("Q3", (POLICY_BASIC256SHA256,), 16),
    )
}


@dataclass(frozen=True)
class CertClass:
    """A certificate shape: signature hash × RSA key length."""

    key: str
    signature_hash: str
    key_bits: int

    def matches(self, policy: SecurityPolicy) -> bool:
        """Does a certificate of this class satisfy ``policy``?"""
        if not policy.provides_security:
            return True
        return (
            self.signature_hash in policy.certificate_hash
            and policy.key_bits_in_range(self.key_bits)
        )


CERT_CLASSES: dict[str, CertClass] = {
    cls.key: cls
    for cls in (
        CertClass("md5-1024", "md5", 1024),
        CertClass("sha1-1024", "sha1", 1024),
        CertClass("sha1-2048", "sha1", 2048),
        CertClass("sha256-2048", "sha256", 2048),
        CertClass("sha256-4096", "sha256", 4096),
    )
}
