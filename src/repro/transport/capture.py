"""Record lane: capture every transport operation into a corpus.

A measurement study lives or dies by re-runnability, but a live grab
can never be re-run identically — the peer answers differently, or is
gone.  This module turns one-shot live traffic into a durable fixture:
a :class:`CaptureNetwork` wraps any network surface the grabber
consumes (the simulated :class:`~repro.netsim.net.NetworkView` or the
live :class:`~repro.scanner.campaign.LiveNetwork`) and records, per
target, everything the scanner observed:

* every ``connect`` outcome (success, or the failure category and
  message the scanner saw);
* every ``write``/``read`` payload, per connection, in order
  (:class:`CaptureTransport` wraps the underlying
  :class:`~repro.transport.socket_io.Transport`);
* every clock observation (:class:`RecordingClock`), so replayed
  records carry the original timestamps and durations byte-for-byte;
* transport errors (timeout, reset, protocol violation) at the exact
  operation where they surfaced.

The corpus serializes as gzip-framed JSONL with the same reproducible
bytes as the dataset files (``filename=""``, ``mtime=0`` — see
:mod:`repro.dataset.io`): a header line declaring the target count,
then per target a header declaring its event count followed by one
line per event.  Declared counts make truncation loud —
:class:`CaptureFormatError` — instead of silently shrinking a corpus.

:mod:`repro.transport.replay` implements the other half: a
:class:`~repro.transport.replay.ReplayTransport` that feeds a captured
event stream back through the unchanged protocol stack.

A minimal in-memory round trip::

    >>> from repro.transport.capture import CaptureTransport
    >>> class Echo:
    ...     bytes_sent = bytes_received = 0
    ...     def write(self, data): self._last = data
    ...     def read(self): return self._last
    ...     def close(self): pass
    >>> events = []
    >>> transport = CaptureTransport(Echo(), events, connection=0)
    >>> transport.write(b"ping")
    >>> transport.read()
    b'ping'
    >>> [e["event"] for e in events]
    ['write', 'read']
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterator

# NOTE: repro.client and repro.dataset are imported lazily inside the
# functions that need them.  Importing them here would close an import
# cycle through the package __init__ modules (transport → capture →
# dataset → scanner → client → secure → transport).

#: Version of the corpus byte format.  Bump on any change to the event
#: vocabulary or framing; old corpora then fail loudly instead of
#: replaying garbage.
CAPTURE_SCHEMA = 1


class CaptureFormatError(ValueError):
    """A capture corpus file violates the JSONL corpus layout."""


def _iso(moment: datetime) -> str:
    """Full-precision timestamp (microseconds survive the round trip)."""
    return moment.isoformat()


class RecordingClock:
    """Wraps a clock and records every observation as an event.

    The grabber derives a record's ``timestamp`` and
    ``scan_duration_s`` from ``clock.now()`` calls, and the traversal
    paces itself with ``clock.advance()``.  Recording each observation
    (not the clock's mechanism) means replay can return the exact same
    datetimes at the exact same call points — wall clock or simulated
    clock alike — which is what makes replayed records byte-identical.
    """

    def __init__(self, inner, events: list[dict]):
        self._inner = inner
        self._events = events

    def now(self) -> datetime:
        moment = self._inner.now()
        self._events.append({"event": "now", "time": _iso(moment)})
        return moment

    def advance(self, seconds: float) -> datetime:
        moment = self._inner.advance(seconds)
        self._events.append(
            {"event": "advance", "seconds": seconds, "time": _iso(moment)}
        )
        return moment


class CaptureTransport:
    """A :class:`~repro.transport.socket_io.Transport` that records.

    Wraps any transport — :class:`~repro.netsim.net.SimSocket` or a
    live :class:`~repro.transport.socket_io.SocketTransport` — and
    mirrors every operation into the event stream: payload bytes
    for write/read, the failure category and message for operations
    that raise.  The recorded error *message* matters as much as the
    category: the scanner copies ``str(exc)`` into record fields, so
    replay must reproduce it verbatim.
    """

    def __init__(self, inner, events: list[dict], connection: int):
        self._inner = inner
        self._events = events
        self._connection = connection

    @property
    def bytes_sent(self) -> int:
        return self._inner.bytes_sent

    @property
    def bytes_received(self) -> int:
        return self._inner.bytes_received

    def _record_error(
        self, op: str, exc: BaseException, counted: int
    ) -> None:
        from repro.client.errors import categorize_error

        # ``counted``: how many bytes the failing operation added to
        # the transport's counter before raising.  The live transport
        # counts a write before the send stalls but not before a
        # deadline check; the simulator refuses before counting.  The
        # record's ``scan_bytes`` copies the counter even on failed
        # grabs, so replay must reproduce the exact observed delta —
        # recording it beats inferring it from the error category.
        self._events.append(
            {
                "event": "io-error",
                "connection": self._connection,
                "op": op,
                "category": categorize_error(exc),
                "message": str(exc),
                "counted": counted,
            }
        )

    def write(self, data: bytes) -> None:
        before = self._inner.bytes_sent
        try:
            self._inner.write(data)
        except Exception as exc:
            self._record_error(
                "write", exc, self._inner.bytes_sent - before
            )
            raise
        self._events.append(
            {
                "event": "write",
                "connection": self._connection,
                "data": data.hex(),
            }
        )

    def read(self) -> bytes:
        before = self._inner.bytes_received
        try:
            data = self._inner.read()
        except Exception as exc:
            self._record_error(
                "read", exc, self._inner.bytes_received - before
            )
            raise
        self._events.append(
            {
                "event": "read",
                "connection": self._connection,
                "data": data.hex(),
            }
        )
        return data

    def close(self) -> None:
        self._events.append(
            {"event": "close", "connection": self._connection}
        )
        self._inner.close()


class CaptureNetwork:
    """Wraps the grabber's network surface, recording one target.

    Duck-types what :func:`~repro.scanner.grabber.grab_host` consumes:
    ``host`` (the ground-truth observation, recorded so replay can
    reproduce the ``asn`` field), ``clock`` (a
    :class:`RecordingClock`), and ``connect`` (each connection's
    outcome plus a :class:`CaptureTransport` around the socket).
    """

    def __init__(self, inner, events: list[dict]):
        self._inner = inner
        self._events = events
        self._connections = 0
        self.clock = RecordingClock(inner.clock, events)

    def host(self, address: int):
        host = self._inner.host(address)
        self._events.append(
            {
                "event": "host",
                "asn": None if host is None else host.asn,
                "known": host is not None,
            }
        )
        return host

    def connect(self, address: int, port: int):
        from repro.client.errors import categorize_error

        try:
            socket = self._inner.connect(address, port)
        except Exception as exc:
            self._events.append(
                {
                    "event": "connect-error",
                    "category": categorize_error(exc),
                    "message": str(exc),
                }
            )
            raise
        connection = self._connections
        self._connections += 1
        self._events.append(
            {"event": "connect", "connection": connection}
        )
        return CaptureTransport(socket, self._events, connection)


@dataclass
class TargetCapture:
    """Everything recorded while grabbing one ``(address, port)``."""

    address: int
    port: int
    events: list[dict] = field(default_factory=list)

    @property
    def key(self) -> tuple[int, int]:
        return (self.address, self.port)


@dataclass
class CaptureCorpus:
    """One recorded scan: per-target event streams plus run metadata.

    ``meta`` carries what replay needs to rebuild the exact scanner
    that recorded the corpus (seed, RNG namespace, identity
    parameters, traversal settings) and the snapshot-level counters
    (label, probed, excluded) that are not derivable from the event
    streams.
    """

    meta: dict = field(default_factory=dict)
    targets: list[TargetCapture] = field(default_factory=list)

    def target_map(self) -> dict[tuple[int, int], TargetCapture]:
        return {target.key: target for target in self.targets}

    def digest(self) -> str:
        """SHA-256 over the corpus's canonical JSONL lines."""
        digest = hashlib.sha256()
        for line in _corpus_lines(self):
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()


class CaptureRecorder:
    """Collects per-target captures across concurrent grab workers.

    One recorder serves one campaign run: each grab wraps its network
    in :meth:`wrap` (thread-safe — grabs fan out across executor
    workers), and :meth:`finish` stamps the snapshot-level metadata
    once the sweep completes.  :meth:`corpus` emits the targets in
    canonical ``(address, port)`` order, so the corpus bytes are
    independent of grab completion order.
    """

    def __init__(self, meta: dict | None = None):
        self._meta = dict(meta or {})
        self._targets: dict[tuple[int, int], TargetCapture] = {}
        self._lock = threading.Lock()

    def wrap(self, network, address: int, port: int) -> CaptureNetwork:
        capture = TargetCapture(address=address, port=port)
        with self._lock:
            if capture.key in self._targets:
                raise ValueError(
                    f"target {capture.key} captured twice in one run"
                )
            self._targets[capture.key] = capture
        return CaptureNetwork(network, capture.events)

    def finish(self, snapshot, traverse: bool, budget) -> None:
        """Record snapshot counters + replay-relevant scan settings."""
        self._meta.update(
            {
                "label": snapshot.date,
                "probed": snapshot.probed,
                "excluded": snapshot.excluded,
                "traverse": traverse,
                "budget": {
                    "inter_request_delay_s": budget.inter_request_delay_s,
                    "max_scan_seconds": budget.max_scan_seconds,
                    "max_bytes": budget.max_bytes,
                },
            }
        )

    def corpus(self) -> CaptureCorpus:
        with self._lock:
            targets = sorted(
                self._targets.values(), key=lambda t: t.key
            )
        return CaptureCorpus(meta=dict(self._meta), targets=targets)


# --- corpus serialization ----------------------------------------------------


def _corpus_lines(corpus: CaptureCorpus) -> Iterator[str]:
    yield json.dumps(
        {
            "capture_corpus": CAPTURE_SCHEMA,
            "meta": corpus.meta,
            "targets": len(corpus.targets),
        },
        sort_keys=True,
    )
    for target in corpus.targets:
        yield json.dumps(
            {
                "target": {
                    "address": target.address,
                    "port": target.port,
                    "events": len(target.events),
                }
            },
            sort_keys=True,
        )
        for event in target.events:
            yield json.dumps(event, sort_keys=True)


def write_corpus(path: str | Path, corpus: CaptureCorpus) -> None:
    """Serialize a corpus (``.gz`` suffix → reproducible gzip bytes)."""
    from repro.dataset.io import canonical_open_write

    with canonical_open_write(path) as handle:
        for line in _corpus_lines(corpus):
            handle.write(line + "\n")


def read_corpus(path: str | Path) -> CaptureCorpus:
    """Parse and validate a corpus file.

    Every malformed shape — truncated tail, corrupted gzip stream,
    invalid JSON, event counts that disagree with their headers —
    raises :class:`CaptureFormatError` with the offending line number.
    """
    from repro.dataset.io import (
        canonical_open_read,
        iter_decompressed_lines,
    )

    path = Path(path)
    corpus: CaptureCorpus | None = None
    current: TargetCapture | None = None
    seen_keys: set[tuple[int, int]] = set()
    remaining = declared_targets = 0
    with canonical_open_read(path) as handle:
        try:
            for number, line in enumerate(
                iter_decompressed_lines(path, handle), 1
            ):
                if not line.strip():
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CaptureFormatError(
                        f"{path}:{number}: not valid JSON "
                        f"(truncated write?): {exc}"
                    ) from None
                if not isinstance(data, dict):
                    raise CaptureFormatError(
                        f"{path}:{number}: expected a JSON object, "
                        f"found {type(data).__name__}"
                    )
                if corpus is None:
                    if "capture_corpus" not in data:
                        raise CaptureFormatError(
                            f"{path}:1: missing capture_corpus header"
                        )
                    if data["capture_corpus"] != CAPTURE_SCHEMA:
                        raise CaptureFormatError(
                            f"{path}: corpus schema "
                            f"{data['capture_corpus']!r}, this code "
                            f"expects {CAPTURE_SCHEMA}"
                        )
                    corpus = CaptureCorpus(meta=data.get("meta", {}))
                    declared_targets = data.get("targets", 0)
                elif "target" in data:
                    if remaining:
                        raise CaptureFormatError(
                            f"{path}:{number}: target "
                            f"{current.key!r} declared "
                            f"{len(current.events) + remaining} events "
                            f"but only {len(current.events)} precede "
                            "the next target header"
                        )
                    header = data["target"]
                    if (
                        not isinstance(header, dict)
                        or "address" not in header
                        or "port" not in header
                    ):
                        raise CaptureFormatError(
                            f"{path}:{number}: target header missing "
                            "address/port"
                        )
                    current = TargetCapture(
                        address=header["address"], port=header["port"]
                    )
                    if current.key in seen_keys:
                        raise CaptureFormatError(
                            f"{path}:{number}: duplicate target "
                            f"{current.key!r} — replay would silently "
                            "drop one of the event streams"
                        )
                    seen_keys.add(current.key)
                    corpus.targets.append(current)
                    remaining = header.get("events", 0)
                else:
                    if current is None:
                        raise CaptureFormatError(
                            f"{path}:{number}: event line before any "
                            "target header"
                        )
                    if remaining <= 0:
                        raise CaptureFormatError(
                            f"{path}:{number}: target {current.key!r} "
                            "has more event lines than its header "
                            "declared"
                        )
                    if "event" not in data:
                        raise CaptureFormatError(
                            f"{path}:{number}: event line without an "
                            "'event' field"
                        )
                    current.events.append(data)
                    remaining -= 1
        except CaptureFormatError:
            raise
        except ValueError as exc:
            # iter_decompressed_lines maps gzip corruption to
            # DatasetFormatError (a ValueError); re-badge it so corpus
            # callers catch one exception type.
            raise CaptureFormatError(str(exc)) from None
    if corpus is None:
        raise CaptureFormatError(f"{path}: empty corpus file")
    if remaining:
        raise CaptureFormatError(
            f"{path}: truncated file: target {current.key!r} declared "
            f"{len(current.events) + remaining} events but the file "
            f"ends after {len(current.events)}"
        )
    if len(corpus.targets) != declared_targets:
        raise CaptureFormatError(
            f"{path}: truncated file: header declared "
            f"{declared_targets} targets, found {len(corpus.targets)}"
        )
    return corpus
