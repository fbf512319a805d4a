"""DER (Distinguished Encoding Rules) encoder/decoder.

Values are represented as a small closed set of Python classes; the
encoder maps each class to its universal tag and the decoder inverts
the mapping.  Unknown tags decode to :class:`RawTlv` so certificates
carrying extensions we do not model still round-trip byte-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone


class Asn1Error(Exception):
    """Malformed DER input or an unencodable value."""


# --- universal tag numbers -------------------------------------------------
TAG_BOOLEAN = 0x01
TAG_INTEGER = 0x02
TAG_BIT_STRING = 0x03
TAG_OCTET_STRING = 0x04
TAG_NULL = 0x05
TAG_OID = 0x06
TAG_UTF8_STRING = 0x0C
TAG_PRINTABLE_STRING = 0x13
TAG_IA5_STRING = 0x16
TAG_UTC_TIME = 0x17
TAG_GENERALIZED_TIME = 0x18
TAG_SEQUENCE = 0x30
TAG_SET = 0x31

_CONSTRUCTED = 0x20
_CONTEXT = 0x80


@dataclass(frozen=True)
class Null:
    """ASN.1 NULL."""


@dataclass(frozen=True)
class Boolean:
    value: bool


@dataclass(frozen=True)
class ObjectIdentifier:
    dotted: str

    def __post_init__(self):
        parts = self.dotted.split(".")
        if len(parts) < 2 or not all(p.isdigit() for p in parts):
            raise Asn1Error(f"invalid OID: {self.dotted!r}")


@dataclass(frozen=True)
class BitString:
    """Bit string; we only need whole-byte payloads (unused bits = 0)."""

    data: bytes
    unused_bits: int = 0


@dataclass(frozen=True)
class OctetString:
    data: bytes


@dataclass(frozen=True)
class Utf8String:
    text: str


@dataclass(frozen=True)
class PrintableString:
    text: str


@dataclass(frozen=True)
class Ia5String:
    text: str


@dataclass(frozen=True)
class UtcTime:
    """UTCTime with seconds and mandatory Z suffix (RFC 5280 profile)."""

    moment: datetime

    def __post_init__(self):
        if self.moment.tzinfo is None:
            raise Asn1Error("UtcTime requires an aware datetime")


@dataclass(frozen=True)
class GeneralizedTime:
    moment: datetime

    def __post_init__(self):
        if self.moment.tzinfo is None:
            raise Asn1Error("GeneralizedTime requires an aware datetime")


@dataclass(frozen=True)
class Sequence:
    items: tuple = ()

    def __init__(self, items=()):
        object.__setattr__(self, "items", tuple(items))

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]


@dataclass(frozen=True)
class SetOf:
    items: tuple = ()

    def __init__(self, items=()):
        object.__setattr__(self, "items", tuple(items))

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        return self.items[index]


@dataclass(frozen=True)
class ContextTag:
    """Context-specific tag ``[number]``.

    ``constructed`` values wrap a single inner DER value; primitive
    values carry raw bytes (used for e.g. SAN URIs and key identifiers).
    """

    number: int
    inner: object = None
    primitive_data: bytes | None = None

    @property
    def constructed(self) -> bool:
        return self.primitive_data is None


@dataclass(frozen=True)
class RawTlv:
    """An opaque TLV preserved verbatim (tag byte + payload)."""

    tag: int
    payload: bytes


# --- length and integer helpers -------------------------------------------


def _encode_length(length: int) -> bytes:
    if length < 0x80:
        return bytes([length])
    body = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def _read_length(data: bytes, pos: int) -> tuple[int, int]:
    if pos >= len(data):
        raise Asn1Error("truncated length")
    first = data[pos]
    pos += 1
    if first < 0x80:
        return first, pos
    count = first & 0x7F
    if count == 0:
        raise Asn1Error("indefinite lengths are not DER")
    if pos + count > len(data):
        raise Asn1Error("truncated long-form length")
    length = int.from_bytes(data[pos : pos + count], "big")
    if count > 1 and data[pos] == 0:
        raise Asn1Error("non-minimal length encoding")
    if length < 0x80 and count == 1:
        raise Asn1Error("non-minimal length encoding")
    return length, pos + count


def encode_integer(value: int) -> bytes:
    """Two's-complement big-endian INTEGER payload (no tag/length)."""
    if value == 0:
        return b"\x00"
    length = (value.bit_length() + 8) // 8 if value > 0 else (
        ((-value - 1).bit_length() + 8) // 8
    )
    return value.to_bytes(length, "big", signed=True)


def decode_integer(payload: bytes) -> int:
    if not payload:
        raise Asn1Error("empty INTEGER")
    if len(payload) > 1:
        if payload[0] == 0x00 and not payload[1] & 0x80:
            raise Asn1Error("non-minimal INTEGER encoding")
        if payload[0] == 0xFF and payload[1] & 0x80:
            raise Asn1Error("non-minimal INTEGER encoding")
    return int.from_bytes(payload, "big", signed=True)


def _encode_oid_payload(dotted: str) -> bytes:
    parts = [int(p) for p in dotted.split(".")]
    if parts[0] > 2 or (parts[0] < 2 and parts[1] > 39):
        raise Asn1Error(f"invalid OID arcs: {dotted}")
    out = bytearray([parts[0] * 40 + parts[1]])
    for arc in parts[2:]:
        chunk = [arc & 0x7F]
        arc >>= 7
        while arc:
            chunk.append((arc & 0x7F) | 0x80)
            arc >>= 7
        out.extend(reversed(chunk))
    return bytes(out)


def _decode_oid_payload(payload: bytes) -> str:
    if not payload:
        raise Asn1Error("empty OID")
    first = payload[0]
    arcs = [min(first // 40, 2), first - 40 * min(first // 40, 2)]
    value = 0
    pending = False
    for byte in payload[1:]:
        value = (value << 7) | (byte & 0x7F)
        pending = bool(byte & 0x80)
        if not pending:
            arcs.append(value)
            value = 0
    if pending:
        raise Asn1Error("truncated OID arc")
    return ".".join(str(a) for a in arcs)


_UTC_FMT = "%y%m%d%H%M%SZ"
_GENERALIZED_FMT = "%Y%m%d%H%M%SZ"


# --- public API -------------------------------------------------------------


def encode_der(value) -> bytes:
    """Encode a value tree into DER bytes."""
    tag, payload = _encode_value(value)
    return bytes([tag]) + _encode_length(len(payload)) + payload


def _encode_value(value) -> tuple[int, bytes]:
    if isinstance(value, Null):
        return TAG_NULL, b""
    if isinstance(value, Boolean):
        return TAG_BOOLEAN, (b"\xff" if value.value else b"\x00")
    if isinstance(value, bool):
        return TAG_BOOLEAN, (b"\xff" if value else b"\x00")
    if isinstance(value, int):
        return TAG_INTEGER, encode_integer(value)
    if isinstance(value, ObjectIdentifier):
        return TAG_OID, _encode_oid_payload(value.dotted)
    if isinstance(value, BitString):
        if not 0 <= value.unused_bits <= 7:
            raise Asn1Error("unused_bits out of range")
        return TAG_BIT_STRING, bytes([value.unused_bits]) + value.data
    if isinstance(value, OctetString):
        return TAG_OCTET_STRING, value.data
    if isinstance(value, Utf8String):
        return TAG_UTF8_STRING, value.text.encode("utf-8")
    if isinstance(value, PrintableString):
        return TAG_PRINTABLE_STRING, value.text.encode("ascii")
    if isinstance(value, Ia5String):
        return TAG_IA5_STRING, value.text.encode("ascii")
    if isinstance(value, UtcTime):
        moment = value.moment.astimezone(timezone.utc)
        if not 1950 <= moment.year <= 2049:
            raise Asn1Error(f"UtcTime cannot represent year {moment.year}")
        return TAG_UTC_TIME, moment.strftime(_UTC_FMT).encode("ascii")
    if isinstance(value, GeneralizedTime):
        moment = value.moment.astimezone(timezone.utc)
        # strftime's %Y does not zero-pad years below 1000.
        text = f"{moment.year:04d}{moment:%m%d%H%M%S}Z"
        return TAG_GENERALIZED_TIME, text.encode("ascii")
    if isinstance(value, Sequence):
        return TAG_SEQUENCE, b"".join(encode_der(item) for item in value)
    if isinstance(value, SetOf):
        # DER requires SET OF elements sorted by their encoding.
        encoded = sorted(encode_der(item) for item in value)
        return TAG_SET, b"".join(encoded)
    if isinstance(value, ContextTag):
        if value.constructed:
            return (_CONTEXT | _CONSTRUCTED | value.number), encode_der(value.inner)
        return (_CONTEXT | value.number), value.primitive_data
    if isinstance(value, RawTlv):
        return value.tag, value.payload
    raise Asn1Error(f"cannot DER-encode {type(value).__name__}")


def decode_der(data: bytes, allow_trailing: bool = False):
    """Decode one DER value from ``data``.

    Malformed input raises :class:`Asn1Error` and nothing else.  So do
    trailing bytes, unless ``allow_trailing`` is set, in which case the
    value and the consumed length are returned.
    """
    try:
        value, consumed = _decode_value(data, 0)
    except (ValueError, RecursionError) as exc:
        # Text and time payloads go through codecs and strptime, which
        # raise their own errors on bad bytes; absurdly deep nesting
        # exhausts the interpreter's recursion limit.
        raise Asn1Error(f"malformed DER value: {exc}") from exc
    if allow_trailing:
        return value, consumed
    if consumed != len(data):
        raise Asn1Error(f"{len(data) - consumed} trailing bytes after DER value")
    return value


def _decode_value(data: bytes, pos: int):
    if pos >= len(data):
        raise Asn1Error("truncated TLV")
    tag = data[pos]
    length, body_pos = _read_length(data, pos + 1)
    end = body_pos + length
    if end > len(data):
        raise Asn1Error("value extends past buffer")
    payload = data[body_pos:end]

    if tag == TAG_NULL:
        if payload:
            raise Asn1Error("NULL with payload")
        return Null(), end
    if tag == TAG_BOOLEAN:
        if len(payload) != 1:
            raise Asn1Error("BOOLEAN must be one byte")
        return payload[0] != 0, end
    if tag == TAG_INTEGER:
        return decode_integer(payload), end
    if tag == TAG_OID:
        return ObjectIdentifier(_decode_oid_payload(payload)), end
    if tag == TAG_BIT_STRING:
        if not payload:
            raise Asn1Error("empty BIT STRING")
        return BitString(payload[1:], payload[0]), end
    if tag == TAG_OCTET_STRING:
        return OctetString(payload), end
    if tag == TAG_UTF8_STRING:
        return Utf8String(payload.decode("utf-8")), end
    if tag == TAG_PRINTABLE_STRING:
        return PrintableString(payload.decode("ascii")), end
    if tag == TAG_IA5_STRING:
        return Ia5String(payload.decode("ascii")), end
    if tag == TAG_UTC_TIME:
        moment = datetime.strptime(payload.decode("ascii"), _UTC_FMT)
        year = moment.year
        # RFC 5280: two-digit years 00-49 are 20xx, 50-99 are 19xx.
        if year >= 2050:
            moment = moment.replace(year=year - 100)
        return UtcTime(moment.replace(tzinfo=timezone.utc)), end
    if tag == TAG_GENERALIZED_TIME:
        moment = datetime.strptime(payload.decode("ascii"), _GENERALIZED_FMT)
        return GeneralizedTime(moment.replace(tzinfo=timezone.utc)), end
    if tag == TAG_SEQUENCE:
        return Sequence(_decode_all(payload)), end
    if tag == TAG_SET:
        return SetOf(_decode_all(payload)), end
    if tag & _CONTEXT:
        number = tag & 0x1F
        if tag & _CONSTRUCTED:
            inner, used = _decode_value(payload, 0)
            if used != len(payload):
                raise Asn1Error("extra data inside context tag")
            return ContextTag(number, inner=inner), end
        return ContextTag(number, primitive_data=payload), end
    return RawTlv(tag, payload), end


def _decode_all(payload: bytes) -> list:
    items = []
    pos = 0
    while pos < len(payload):
        value, pos = _decode_value(payload, pos)
        items.append(value)
    return items
