"""Newline-delimited JSON dataset files.

Layout: one header line per snapshot (``{"snapshot": date, ...}``)
followed by one line per host record.  The header's ``records`` field
declares how many record lines follow, which lets the reader detect
truncated files — a partially written dataset (interrupted run, bad
copy) fails loudly instead of silently shrinking a sweep.

Each record line is the record's canonical JSON
(:func:`~repro.core.golden.canonical_json`: sorted keys, compact
separators), and a snapshot's golden digest is a frame around exactly
those lines (:class:`~repro.core.golden.SnapshotDigest`).  So the
writer hashes the lines it writes and the reader the lines it reads:
no record is encoded twice to store it, nor re-encoded to check it.

Files whose name ends in ``.gz`` are transparently gzip-compressed on
both ends.  :func:`iter_snapshots` is the streaming reader: it yields
one fully populated snapshot at a time, so a consumer that only needs
one sweep (or wants to process sweeps incrementally) never holds the
whole study in memory.  :func:`read_snapshots` remains the eager
convenience wrapper.

The open/iterate primitives — :func:`canonical_open_write`,
:func:`canonical_open_read`, :func:`iter_decompressed_lines` — are
shared with the capture-corpus format
(:mod:`repro.transport.capture`), so every gzip-framed artifact in the
repo has the same reproducible-bytes and truncation-detection story.
"""

from __future__ import annotations

import gzip
import io
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

from repro.core.golden import SnapshotDigest, canonical_json
from repro.scanner.records import HostRecord, MeasurementSnapshot


class DatasetFormatError(ValueError):
    """A dataset file violates the JSONL snapshot layout."""


def canonical_open_read(path: str | Path) -> TextIO:
    """Open a text file for reading, transparently gunzipping ``.gz``."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


@contextmanager
def canonical_open_write(path: str | Path) -> Iterator[TextIO]:
    """Open a text file for writing with byte-reproducible compression.

    Files ending in ``.gz`` are gzip-compressed with ``filename=""``
    and ``mtime=0``, so the header carries no environment detail: the
    compressed bytes are a pure function of the written content.  That
    property is what lets stored studies and capture corpora be
    content-addressed and digest-pinned.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".gz":
        with open(path, "wb") as binary:
            with gzip.GzipFile(
                fileobj=binary, mode="wb", filename="", mtime=0
            ) as raw:
                with io.TextIOWrapper(raw, encoding="utf-8") as handle:
                    yield handle
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def iter_decompressed_lines(path: Path, handle: TextIO) -> Iterator[str]:
    """Iterate lines, mapping decompression failures to format errors.

    A byte-truncated or corrupted ``.gz`` file surfaces as
    ``EOFError``/``BadGzipFile``/``zlib.error`` mid-iteration; callers
    are promised :class:`DatasetFormatError` for every malformed-file
    shape, so wrap them here.
    """
    import zlib

    iterator = iter(handle)
    while True:
        try:
            line = next(iterator)
        except StopIteration:
            return
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise DatasetFormatError(
                f"{path}: corrupted or truncated compressed data: {exc}"
            ) from None
        yield line


def write_snapshots(
    path: str | Path, snapshots: list[MeasurementSnapshot]
) -> dict[str, str]:
    """Write ``snapshots``; returns ``{sweep date: digest}``.

    Each record is encoded once, to its canonical line, and the
    returned digests are hashed from those same lines — they equal
    :func:`~repro.core.golden.sweep_digests` of ``snapshots``.
    """
    with canonical_open_write(path) as handle:
        return _write_lines(handle, snapshots)


def _write_lines(
    handle: TextIO, snapshots: list[MeasurementSnapshot]
) -> dict[str, str]:
    digests = {}
    for snapshot in snapshots:
        header = {
            "snapshot": snapshot.date,
            "probed": snapshot.probed,
            "port_open": snapshot.port_open,
            "excluded": snapshot.excluded,
            "records": len(snapshot.records),
        }
        handle.write(json.dumps(header) + "\n")
        digest = SnapshotDigest(snapshot)
        for record in snapshot.records:
            line = canonical_json(record.to_json_dict())
            handle.write(line + "\n")
            digest.add(line)
        digests[snapshot.date] = digest.hexdigest()
    return digests


def iter_snapshots(
    path: str | Path, digests: list[str] | None = None
) -> Iterator[MeasurementSnapshot]:
    """Stream snapshots one at a time, validating record counts.

    Each snapshot is yielded only once all the record lines its header
    declared have been read, so a truncated tail raises
    :class:`DatasetFormatError` instead of yielding a short snapshot.
    So does a complete line of the wrong shape: one that is not a JSON
    object, a header whose ``snapshot`` is not a string or whose
    ``records`` is not a non-negative integer, or a record that
    :meth:`HostRecord.from_json_dict` rejects.

    Each record line's bytes are hashed in the same pass
    (:class:`~repro.core.golden.SnapshotDigest`); when ``digests`` is
    given, a snapshot's digest is appended to it just before the
    snapshot is yielded.  It equals
    :func:`~repro.core.golden.snapshot_digest` of that snapshot
    exactly when every record line is in the canonical form
    :func:`write_snapshots` writes.
    """
    path = Path(path)
    current: MeasurementSnapshot | None = None
    digest: SnapshotDigest | None = None
    remaining = 0
    with canonical_open_read(path) as handle:
        for number, line in enumerate(
            iter_decompressed_lines(path, handle), 1
        ):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(
                    f"{path}:{number}: not valid JSON "
                    f"(truncated write?): {exc}"
                ) from None
            if not isinstance(data, dict):
                raise DatasetFormatError(
                    f"{path}:{number}: expected a JSON object, "
                    f"got {type(data).__name__}"
                )
            if "snapshot" in data:
                date = data["snapshot"]
                declared = data.get("records", 0)
                if (
                    not isinstance(date, str)
                    or type(declared) is not int
                    or declared < 0
                ):
                    raise DatasetFormatError(
                        f"{path}:{number}: malformed snapshot header "
                        f"(snapshot {date!r}, records {declared!r})"
                    )
                if remaining:
                    raise DatasetFormatError(
                        f"{path}:{number}: snapshot {current.date!r} "
                        f"declared {len(current.records) + remaining} "
                        f"records but only {len(current.records)} "
                        "precede the next header"
                    )
                if current is not None:
                    if digests is not None:
                        digests.append(digest.hexdigest())
                    yield current
                current = MeasurementSnapshot(
                    date=date,
                    probed=data.get("probed", 0),
                    port_open=data.get("port_open", 0),
                    excluded=data.get("excluded", 0),
                )
                digest = SnapshotDigest(current)
                remaining = declared
            else:
                if current is None:
                    raise DatasetFormatError(
                        f"{path}:{number}: record line before any "
                        "snapshot header"
                    )
                if remaining <= 0:
                    raise DatasetFormatError(
                        f"{path}:{number}: snapshot {current.date!r} "
                        "has more record lines than its header declared"
                    )
                try:
                    record = HostRecord.from_json_dict(data)
                except TypeError as exc:
                    raise DatasetFormatError(
                        f"{path}:{number}: not a host record: {exc}"
                    ) from None
                current.records.append(record)
                digest.add(line.rstrip("\n"))
                remaining -= 1
    if remaining:
        raise DatasetFormatError(
            f"{path}: truncated file: snapshot {current.date!r} declared "
            f"{len(current.records) + remaining} records but the file "
            f"ends after {len(current.records)}"
        )
    if current is not None:
        if digests is not None:
            digests.append(digest.hexdigest())
        yield current


def read_snapshots(path: str | Path) -> list[MeasurementSnapshot]:
    return list(iter_snapshots(path))
