"""Object identifier registry for the certificate subset we handle.

The study's certificate analysis (paper §5.2) needs to recognize the
signature algorithm (MD5/SHA-1/SHA-256 with RSA) and the usual
distinguished-name attributes; everything else is carried opaquely.
"""

from __future__ import annotations

# Signature and key algorithms (PKCS#1, RFC 8017 / RFC 5280).
RSA_ENCRYPTION = "1.2.840.113549.1.1.1"
MD5_WITH_RSA = "1.2.840.113549.1.1.4"
SHA1_WITH_RSA = "1.2.840.113549.1.1.5"
SHA256_WITH_RSA = "1.2.840.113549.1.1.11"

# Distinguished-name attribute types (X.520).
COMMON_NAME = "2.5.4.3"
COUNTRY = "2.5.4.6"
LOCALITY = "2.5.4.7"
STATE = "2.5.4.8"
ORGANIZATION = "2.5.4.10"
ORG_UNIT = "2.5.4.11"

# X.509 v3 extensions.
SUBJECT_ALT_NAME = "2.5.29.17"
BASIC_CONSTRAINTS = "2.5.29.19"
KEY_USAGE = "2.5.29.15"
EXT_KEY_USAGE = "2.5.29.37"
SUBJECT_KEY_ID = "2.5.29.14"
AUTHORITY_KEY_ID = "2.5.29.35"

# Extended key usage purposes.
SERVER_AUTH = "1.3.6.1.5.5.7.3.1"
CLIENT_AUTH = "1.3.6.1.5.5.7.3.2"

# Map signature OIDs to the hash function they embed; this is exactly
# the lookup the paper's Figure 4 relies on.
SIGNATURE_HASHES: dict[str, str] = {
    MD5_WITH_RSA: "md5",
    SHA1_WITH_RSA: "sha1",
    SHA256_WITH_RSA: "sha256",
}

HASH_SIGNATURE_OIDS: dict[str, str] = {h: oid for oid, h in SIGNATURE_HASHES.items()}
