"""The store's line format: one encoding per record, one digest per frame.

``write_snapshots`` emits each record as its canonical JSON line and
hashes those lines into the sweep digests; ``iter_snapshots`` hashes
the lines it reads in the pass that decodes them.  Both equal the
golden definition, ``sha256(canonical_json(snapshot.to_json_dict()))``,
only because a written line is a fixed point of decode-then-encode —
which the loader no longer re-checks at run time, so it is pinned
here.  The flip side is a contract: a stored line re-serialised to the
same JSON value in other bytes no longer loads.
"""

from __future__ import annotations

import gzip
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.golden import canonical_json, snapshot_digest
from repro.dataset.io import iter_snapshots, write_snapshots
from repro.dataset.store import SNAPSHOT_FILE, StoreIntegrityError, StudyStore
from repro.scanner.records import HostRecord, MeasurementSnapshot

from tests.scanner.test_record_json import _filled_records

GOLDEN_STUDIES = [
    "serial_tiny_result",
    "golden_secure_result",
    "golden_hostile_result",
]


def reference_digest(snapshot: MeasurementSnapshot) -> str:
    """The digest definition, with no line framing involved."""
    return hashlib.sha256(
        canonical_json(snapshot.to_json_dict()).encode("utf-8")
    ).hexdigest()


def check_one_digest_two_encodings(path, snapshots) -> None:
    """The helper, the writer and the reader all hash to the
    definition, and every written record line is a fixed point."""
    expected = {s.date: reference_digest(s) for s in snapshots}
    assert {s.date: snapshot_digest(s) for s in snapshots} == expected
    assert write_snapshots(path, snapshots) == expected

    read: list[str] = []
    decoded = list(iter_snapshots(path, read))
    assert read == [reference_digest(s) for s in snapshots]
    assert [reference_digest(s) for s in decoded] == read

    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    records = sum(len(s.records) for s in snapshots)
    assert len(lines) == len(snapshots) + records
    for line in lines:
        data = json.loads(line)
        if "snapshot" in data:
            continue
        record = HostRecord.from_json_dict(data)
        assert canonical_json(record.to_json_dict()) == line


@pytest.mark.parametrize("fixture", GOLDEN_STUDIES)
def test_golden_snapshots_one_digest_two_encodings(
    request, fixture, tmp_path
):
    snapshots = request.getfixturevalue(fixture).snapshots
    check_one_digest_two_encodings(tmp_path / "golden.jsonl", snapshots)


_plain_records = st.builds(
    HostRecord,
    ip=st.integers(min_value=0, max_value=2**32 - 1),
    port=st.integers(min_value=1, max_value=65535),
    asn=st.none() | st.integers(min_value=0, max_value=2**32),
    timestamp=st.text(max_size=12),
    application_uri=st.none() | st.text(max_size=12),
)

_snapshots = st.builds(
    MeasurementSnapshot,
    date=st.text(max_size=12),
    records=st.lists(_filled_records | _plain_records, max_size=4),
    probed=st.integers(min_value=0, max_value=2**40),
    port_open=st.integers(min_value=0, max_value=2**40),
    excluded=st.integers(min_value=0, max_value=2**40),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(_snapshots, max_size=3))
def test_generated_snapshots_one_digest_two_encodings(
    tmp_path_factory, snapshots
):
    """Zero records, non-ASCII strings, every sparse field set or
    unset, and a sweep date repeated within one file."""
    path = tmp_path_factory.mktemp("lines") / "generated.jsonl"
    check_one_digest_two_encodings(path, snapshots)


# --- one encoding per record -----------------------------------------------


@pytest.fixture()
def encodes(monkeypatch) -> list[int]:
    """Count ``HostRecord.to_json_dict`` calls; the returned list
    grows by one entry per call."""
    calls: list[int] = []
    original = HostRecord.to_json_dict

    def counting(record):
        calls.append(record.port)
        return original(record)

    monkeypatch.setattr(HostRecord, "to_json_dict", counting)
    return calls


def test_save_encodes_each_record_once(serial_tiny_result, encodes, tmp_path):
    result = serial_tiny_result
    records = sum(len(s.records) for s in result.snapshots)
    store = StudyStore(tmp_path)
    store.save(result.config, result.spec, result.snapshots)
    assert len(encodes) == records
    encodes.clear()
    store.save_shard(result.config, result.spec, 0, 2, result.snapshots)
    assert len(encodes) == records


def test_load_encodes_no_record(serial_tiny_result, encodes, tmp_path):
    result = serial_tiny_result
    store = StudyStore(tmp_path)
    key = store.save(result.config, result.spec, result.snapshots)
    store.save_shard(result.config, result.spec, 0, 2, result.snapshots)
    encodes.clear()
    loaded = store.load(result.config, result.spec)
    streamed = list(store.iter_validated(key))
    shard = store.load_shard(result.config, result.spec, 0, 2)
    assert encodes == []
    expected = [snapshot_digest(s) for s in result.snapshots]
    for snapshots in (loaded, streamed, shard):
        assert [snapshot_digest(s) for s in snapshots] == expected


# --- byte-level integrity ----------------------------------------------------


def _reserialise_record_line(path, dump) -> None:
    """Rewrite the first record line to the same JSON value in the
    bytes ``dump`` gives it."""
    lines = gzip.decompress(path.read_bytes()).decode().splitlines()
    original = lines[1]
    lines[1] = dump(json.loads(original))
    assert lines[1] != original
    assert json.loads(lines[1]) == json.loads(original)
    path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))


@pytest.mark.parametrize(
    "dump",
    [
        json.dumps,
        lambda data: json.dumps(
            dict(reversed(data.items())), separators=(",", ":")
        ),
    ],
    ids=["spaced-separators", "keys-reordered"],
)
def test_reserialised_line_fails_integrity(serial_tiny_result, tmp_path, dump):
    """Contract: the store hashes the bytes it stored, so a line
    re-serialised to an equal JSON value is a changed entry."""
    result = serial_tiny_result
    store = StudyStore(tmp_path)
    key = store.save(result.config, result.spec, result.snapshots)
    store.save_shard(result.config, result.spec, 0, 2, result.snapshots)
    _reserialise_record_line(store.entry_dir(key) / SNAPSHOT_FILE, dump)
    _reserialise_record_line(
        store.shard_dir(key, 0, 2) / SNAPSHOT_FILE, dump
    )
    first = result.snapshots[0].date
    with pytest.raises(StoreIntegrityError, match=f"{first} digest mismatch"):
        store.load(result.config, result.spec)
    with pytest.raises(StoreIntegrityError, match="digest mismatch"):
        store.load_shard(result.config, result.spec, 0, 2)
