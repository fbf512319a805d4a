"""The policy-negotiation seam: one object for a channel's security.

Everything a secure-channel handshake needs travels together here: the
``(policy, mode)`` pair being negotiated, the local certificate and
private key that sign the OpenSecureChannel chunk and the session
nonce proofs, and the peer certificate that encrypts toward the
remote side.  :class:`~repro.client.client.UaClient` threads one
:class:`ChannelSecurity` through OpenSecureChannel → CreateSession →
ActivateSession, and the scanner builds one per endpoint it connects
to — replacing the implicit None-only paths that previously hard-wired
``policy=None`` everywhere above the framing layer.

The module also owns the signature-algorithm URI table and the
nonce-proof sign/verify helpers that the client and the server engine
previously each kept a private copy of.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.secure.channel import ClientSecureChannel, SecureChannelError
from repro.secure.crypto_suite import asym_sign, asym_verify
from repro.secure.policies import POLICY_NONE, SecurityPolicy
from repro.uabin.enums import MessageSecurityMode
from repro.uabin.types_common import SignatureData
from repro.x509.certificate import Certificate, parse_certificate

#: AsymmetricSignatureAlgorithm URIs per policy signature scheme
#: (OPC 10000-7); shared by the client's ActivateSession proof and the
#: server's CreateSession proof.
SIGNATURE_ALG_URIS = {
    "pkcs1-sha1": "http://www.w3.org/2000/09/xmldsig#rsa-sha1",
    "pkcs1-sha256": "http://www.w3.org/2001/04/xmldsig-more#rsa-sha256",
    "pss-sha256": "http://opcfoundation.org/UA/security/rsa-pss-sha2-256",
}

#: Modes a secure (non-None) policy may be negotiated at.
SECURE_MODES = (
    MessageSecurityMode.SIGN,
    MessageSecurityMode.SIGN_AND_ENCRYPT,
)


def signature_algorithm_uri(policy: SecurityPolicy) -> str | None:
    """The nonce-proof signature algorithm URI for ``policy``."""
    if policy.asym_signature is None:
        return None
    return SIGNATURE_ALG_URIS[policy.asym_signature]


def sign_nonce_proof(
    policy: SecurityPolicy, private_key, data: bytes, rng: random.Random
) -> SignatureData:
    """Sign a certificate+nonce proof (CreateSession/ActivateSession)."""
    return SignatureData(
        algorithm=signature_algorithm_uri(policy),
        signature=asym_sign(policy, private_key, data, rng),
    )


def verify_nonce_proof(
    policy: SecurityPolicy,
    certificate: Certificate,
    data: bytes,
    proof: SignatureData | None,
) -> bool:
    """Check a peer's certificate+nonce proof signature."""
    if proof is None or not proof.signature:
        return False
    expected = signature_algorithm_uri(policy)
    if proof.algorithm is not None and proof.algorithm != expected:
        return False
    return asym_verify(policy, certificate.public_key, data, proof.signature)


@dataclass(frozen=True)
class ChannelSecurity:
    """Negotiated security of one channel: policy, mode, and key material.

    ``local_certificate``/``local_private_key`` identify *this* side
    (they sign outgoing OPN chunks and nonce proofs);
    ``peer_certificate`` is the remote side's certificate (it encrypts
    toward the peer and verifies the peer's proofs).  For the None
    policy all three stay unset.
    """

    policy: SecurityPolicy
    mode: MessageSecurityMode
    local_certificate: Certificate | None = None
    local_private_key: object = None
    peer_certificate: Certificate | None = None

    def __post_init__(self):
        if self.policy is POLICY_NONE:
            if self.mode != MessageSecurityMode.NONE:
                raise SecureChannelError(
                    "policy None requires security mode None"
                )
            return
        if self.mode not in SECURE_MODES:
            raise SecureChannelError(
                f"policy {self.policy.name} requires Sign or "
                f"SignAndEncrypt, got {self.mode.name}"
            )
        if self.local_certificate is None or self.local_private_key is None:
            raise SecureChannelError(
                "secure policies need the local certificate and key"
            )
        if self.peer_certificate is None:
            raise SecureChannelError(
                "secure policies need the peer certificate"
            )

    # --- constructors ---------------------------------------------------------

    @classmethod
    def none(cls) -> "ChannelSecurity":
        """The discovery configuration: policy None, mode None."""
        return cls(POLICY_NONE, MessageSecurityMode.NONE)

    @classmethod
    def for_endpoint(
        cls,
        policy: SecurityPolicy,
        mode: MessageSecurityMode,
        identity,
        server_certificate_der: bytes | None,
    ) -> "ChannelSecurity":
        """Security for one advertised endpoint, from the client side.

        ``identity`` is anything carrying ``certificate``/``private_key``
        (a :class:`~repro.client.client.ClientIdentity`);
        ``server_certificate_der`` is the certificate the endpoint
        advertised.
        """
        if policy is POLICY_NONE:
            return cls.none()
        if server_certificate_der is None:
            raise SecureChannelError(
                "secure policies need the server certificate"
            )
        return cls(
            policy,
            mode,
            local_certificate=identity.certificate,
            local_private_key=identity.private_key,
            peer_certificate=parse_certificate(server_certificate_der),
        )

    # --- derived views --------------------------------------------------------

    @property
    def is_secure(self) -> bool:
        return self.policy is not POLICY_NONE

    @property
    def peer_certificate_der(self) -> bytes | None:
        if self.peer_certificate is None:
            return None
        return self.peer_certificate.raw_der

    def client_channel(self, rng: random.Random) -> ClientSecureChannel:
        """Build the client channel half this security describes."""
        return ClientSecureChannel(
            self.policy,
            self.mode,
            rng,
            client_certificate=self.local_certificate,
            client_private_key=self.local_private_key,
            server_certificate=self.peer_certificate,
        )

    # --- nonce proofs ---------------------------------------------------------

    def sign_proof(self, data: bytes, rng: random.Random) -> SignatureData:
        """Sign ``data`` with the local key (ActivateSession proof)."""
        return sign_nonce_proof(self.policy, self.local_private_key, data, rng)

    def verify_peer_proof(self, data: bytes, proof: SignatureData | None) -> bool:
        """Verify the peer's proof over ``data`` (CreateSession reply)."""
        if self.peer_certificate is None:
            return False
        return verify_nonce_proof(self.policy, self.peer_certificate, data, proof)
