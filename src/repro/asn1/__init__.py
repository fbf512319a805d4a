"""A small, self-contained ASN.1 DER encoder/decoder.

Only the subset of DER needed for X.509 v3 certificates and PKCS#1 key
material is implemented: definite-length TLV, the universal types used
by RFC 5280, and an OID registry.  The design follows the "explicit is
better than implicit" rule: values are plain Python objects tagged with
explicit classes rather than a generic schema compiler.
"""

from repro.asn1.der import (
    Asn1Error,
    BitString,
    ContextTag,
    Null,
    ObjectIdentifier,
    OctetString,
    PrintableString,
    Sequence,
    SetOf,
    UtcTime,
    Utf8String,
    decode_der,
    encode_der,
    encode_integer,
    decode_integer,
)

__all__ = [
    "Asn1Error",
    "BitString",
    "ContextTag",
    "Null",
    "ObjectIdentifier",
    "OctetString",
    "PrintableString",
    "Sequence",
    "SetOf",
    "UtcTime",
    "Utf8String",
    "decode_der",
    "decode_integer",
    "encode_der",
    "encode_integer",
]
