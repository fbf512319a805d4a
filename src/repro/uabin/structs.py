"""Declarative codec for OPC UA service structures.

Every service message derives from :class:`UaStruct` and declares a
``_fields_`` table mapping attribute names to type specs:

* a string — one of the built-in codec names of
  :mod:`repro.uabin.builtin`, or the specials ``"variant"``,
  ``"datavalue"``, ``"extensionobject"``;
* a :class:`UaStruct` subclass — nested structure;
* an :class:`enum.IntEnum`/:class:`enum.IntFlag` subclass — encoded as
  Int32 (the OPC UA enum wire type);
* ``("array", spec)`` — length-prefixed array of any of the above.

The table *is* the wire format, which keeps each message definition
next to its fields and makes encode/decode impossible to drift apart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime

from repro.uabin import builtin
from repro.uabin.nodeid import NodeId
from repro.uabin.statuscodes import StatusCode, StatusCodes
from repro.uabin.variant import DataValue, Variant
from repro.util.binary import BinaryReader, BinaryWriter, NotEnoughData


class DecodingError(Exception):
    """Raised when a message cannot be decoded."""


@dataclass(frozen=True)
class ExtensionObject:
    """A value wrapped with its binary-encoding NodeId.

    ``encoding`` 0 means no body, 1 a binary ByteString body, 2 an XML
    body (never produced here but tolerated on decode).
    """

    type_id: NodeId = field(default_factory=NodeId)
    body: bytes | None = None
    encoding: int = 0

    def encode(self, writer: BinaryWriter) -> None:
        self.type_id.encode(writer)
        if self.body is None:
            writer.write_uint8(0)
        else:
            writer.write_uint8(self.encoding or 1)
            builtin.write_bytestring(writer, self.body)

    @classmethod
    def decode(cls, reader: BinaryReader) -> "ExtensionObject":
        type_id = NodeId.decode(reader)
        encoding = reader.read_uint8()
        if encoding == 0:
            return cls(type_id, None, 0)
        if encoding in (1, 2):
            return cls(type_id, builtin.read_bytestring(reader), encoding)
        raise DecodingError(f"invalid ExtensionObject encoding: {encoding}")

    @classmethod
    def null(cls) -> "ExtensionObject":
        return cls(NodeId(0, 0), None, 0)


def _compile_spec(spec):
    """Resolve a field spec to an ``(encode, decode)`` closure pair.

    Resolution (codec-table lookups, ``isinstance`` ladders, subclass
    checks) happens once per spec here instead of once per field per
    message on the hot path; the returned closures take only
    ``(writer, value)`` / ``(reader)``.
    """
    if isinstance(spec, tuple) and spec[0] == "array":
        encode_item, decode_item = _compile_spec(spec[1])

        def encode_array(writer, value):
            if value is None:
                writer.write_int32(-1)
                return
            writer.write_int32(len(value))
            for item in value:
                encode_item(writer, item)

        def decode_array(reader):
            length = reader.read_int32()
            if length < 0:
                return None
            if length > reader.remaining:
                raise DecodingError(
                    f"array length {length} exceeds message size"
                )
            return [decode_item(reader) for _ in range(length)]

        return encode_array, decode_array
    if isinstance(spec, str):
        if spec == "variant":

            def encode_variant(writer, value):
                (value if value is not None else Variant()).encode(writer)

            return encode_variant, Variant.decode
        if spec == "datavalue":

            def encode_datavalue(writer, value):
                (value if value is not None else DataValue()).encode(writer)

            return encode_datavalue, DataValue.decode
        if spec == "extensionobject":

            def encode_extensionobject(writer, value):
                (
                    value if value is not None else ExtensionObject.null()
                ).encode(writer)

            return encode_extensionobject, ExtensionObject.decode
        codec = builtin.CODECS.get(spec)
        if codec is None:
            raise TypeError(f"unsupported field spec: {spec!r}")
        return codec
    if isinstance(spec, type) and issubclass(spec, UaStruct):

        def encode_nested(writer, value):
            (value if value is not None else spec()).encode(writer)

        return encode_nested, spec.decode
    if isinstance(spec, type) and issubclass(spec, enum.IntEnum | enum.IntFlag):

        def encode_enum(writer, value):
            writer.write_int32(int(value))

        def decode_enum(reader):
            return spec(reader.read_int32())

        return encode_enum, decode_enum
    raise TypeError(f"unsupported field spec: {spec!r}")


#: class -> ((name, encode) ...), class -> ((name, decode) ...); keyed
#: by the concrete class so subclasses refining ``_fields_`` never see
#: a parent's plan.
_ENCODE_PLANS: dict[type, tuple] = {}
_DECODE_PLANS: dict[type, tuple] = {}


def _compile_plans(cls) -> tuple[tuple, tuple]:
    compiled = [
        (name, *_compile_spec(spec)) for name, spec in cls._fields_
    ]
    encoders = tuple((name, encode) for name, encode, _ in compiled)
    decoders = tuple((name, decode) for name, _, decode in compiled)
    _ENCODE_PLANS[cls] = encoders
    _DECODE_PLANS[cls] = decoders
    return encoders, decoders


class UaStruct:
    """Base class for declaratively encoded structures."""

    _fields_: list[tuple[str, object]] = []

    def encode(self, writer: BinaryWriter) -> None:
        cls = self.__class__
        plan = _ENCODE_PLANS.get(cls)
        if plan is None:
            plan = _compile_plans(cls)[0]
        for name, encode_field in plan:
            encode_field(writer, getattr(self, name))

    @classmethod
    def decode(cls, reader: BinaryReader):
        plan = _DECODE_PLANS.get(cls)
        if plan is None:
            plan = _compile_plans(cls)[1]
        values = {}
        name = None
        try:
            for name, decode_field in plan:
                values[name] = decode_field(reader)
        except (NotEnoughData, ValueError) as exc:
            raise DecodingError(
                f"cannot decode {cls.__name__}.{name}: {exc}"
            ) from exc
        return cls(**values)

    def to_bytes(self) -> bytes:
        writer = BinaryWriter()
        self.encode(writer)
        return writer.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes):
        reader = BinaryReader(data)
        value = cls.decode(reader)
        return value


# --- request/response headers (used by every service) -----------------------


@dataclass
class RequestHeader(UaStruct):
    """Common header carried by every service request."""

    authentication_token: NodeId = field(default_factory=NodeId)
    timestamp: datetime | None = None
    request_handle: int = 0
    return_diagnostics: int = 0
    audit_entry_id: str | None = None
    timeout_hint: int = 0
    additional_header: ExtensionObject = field(default_factory=ExtensionObject.null)

    _fields_ = [
        ("authentication_token", "nodeid"),
        ("timestamp", "datetime"),
        ("request_handle", "uint32"),
        ("return_diagnostics", "uint32"),
        ("audit_entry_id", "string"),
        ("timeout_hint", "uint32"),
        ("additional_header", "extensionobject"),
    ]


@dataclass
class ResponseHeader(UaStruct):
    """Common header carried by every service response."""

    timestamp: datetime | None = None
    request_handle: int = 0
    service_result: StatusCode = field(default_factory=lambda: StatusCodes.Good)
    service_diagnostics: builtin.DiagnosticInfo = field(
        default_factory=builtin.DiagnosticInfo
    )
    string_table: list[str] | None = None
    additional_header: ExtensionObject = field(default_factory=ExtensionObject.null)

    _fields_ = [
        ("timestamp", "datetime"),
        ("request_handle", "uint32"),
        ("service_result", "statuscode"),
        ("service_diagnostics", "diagnosticinfo"),
        ("string_table", ("array", "string")),
        ("additional_header", "extensionobject"),
    ]
