"""``HostRecord.to_json_dict`` against its reference, ``dataclasses.asdict``.

Every store save, load-time digest check, golden digest and
shard-merge comparison hashes the dict ``to_json_dict`` returns.  It is
built by a shallow conversion over the dataclass fields; ``asdict``,
with the sparse fields pruned the same way, stays here as the
reference it must equal, on every golden record and on records that
fill every optional field, sparse field and list.
"""

from __future__ import annotations

from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.scanner.records import (
    CertificateInfo,
    EndpointRecord,
    HostRecord,
    NodeSummary,
    SecureChannelAttempt,
    SessionAttempt,
)


def reference_json_dict(record: HostRecord) -> dict:
    """``asdict(record)`` with the unset sparse fields pruned."""
    data = asdict(record)
    for key in HostRecord._SPARSE_FIELDS:
        if data[key] is None:
            del data[key]
    session = data["session"]
    if session:
        for key in HostRecord._SPARSE_SESSION_FIELDS:
            if session[key] is None:
                del session[key]
    return data


def scribble(value) -> None:
    """Overwrite every value and extend every list, depth first."""
    if isinstance(value, dict):
        for key in list(value):
            scribble(value[key])
            value[key] = "scribbled"
    elif isinstance(value, list):
        for item in value:
            scribble(item)
        value.append("scribbled")


@pytest.mark.parametrize(
    "fixture",
    ["serial_tiny_result", "golden_secure_result", "golden_hostile_result"],
)
def test_golden_records_match_reference(request, fixture):
    result = request.getfixturevalue(fixture)
    records = [record for s in result.snapshots for record in s.records]
    assert records
    for record in records:
        assert record.to_json_dict() == reference_json_dict(record)


_text = st.text(max_size=12)
_ints = st.integers(min_value=-(2**63), max_value=2**63)

#: A non-None strategy per field annotation of the record classes; a
#: field of a type missing here fails with KeyError, so a new field
#: cannot escape the comparison.
_LEAVES = {
    "str": _text,
    "str | None": _text,
    "int": _ints,
    "int | None": _ints,
    "bool": st.booleans(),
    "float": st.floats(allow_nan=False),
    "list[str]": st.lists(_text, min_size=1, max_size=3),
    "list[int]": st.lists(_ints, min_size=1, max_size=3),
}


def filled(cls, **nested):
    """Instances of ``cls`` with every field set: no None, no empty
    list.  ``nested`` gives the strategies of dataclass-typed fields."""
    return st.builds(
        cls,
        **{
            f.name: nested[f.name] if f.name in nested else _LEAVES[f.type]
            for f in fields(cls)
        },
    )


_filled_records = filled(
    HostRecord,
    endpoints=st.lists(filled(EndpointRecord), min_size=1, max_size=3),
    certificate=filled(CertificateInfo),
    secure_channel=filled(SecureChannelAttempt),
    session=filled(SessionAttempt),
    nodes=filled(NodeSummary),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_filled_records)
def test_filled_records_match_reference(record):
    data = record.to_json_dict()
    assert data == reference_json_dict(record)
    assert "error_category" in data
    assert "negotiation_error" in data["session"]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_filled_records)
def test_mutating_the_dict_leaves_the_record_unchanged(record):
    before = reference_json_dict(record)
    scribble(record.to_json_dict())
    assert reference_json_dict(record) == before
