"""Live socket transport: one blocking TCP socket per connection.

The protocol stack above this module is synchronous and stream-shaped:
:class:`~repro.client.client.UaClient` writes request bytes and reads
whatever the peer produced, and
:class:`~repro.transport.connection.FrameReader` reassembles frames
from arbitrary byte slices.  This module supplies the missing lane —
bytes that move over a real TCP connection instead of the simulator —
without the stack noticing the difference:

* :class:`Transport` names the seam: the duplex-stream surface both
  the simulated :class:`~repro.netsim.net.SimSocket` and the live
  :class:`SocketTransport` satisfy.  Everything above it records
  *what the scanner saw*; everything below decides *how bytes move*.
* :class:`SocketTransport` is the live implementation: a blocking
  socket with a per-operation timeout clipped to an optional
  per-connection deadline.  There is no event loop: the scan
  executor's worker thread that runs a grab blocks on its own
  socket, so the executor alone decides how many grabs are in flight.
* :class:`WallClock` gives the live lane the simulator's clock
  interface: ``now`` reads real UTC and ``advance`` sleeps, so the
  traversal's inter-request pacing becomes real pacing on the wire.
"""

from __future__ import annotations

import socket
import time
from datetime import datetime, timezone
from typing import Protocol, runtime_checkable

from repro.transport.messages import TransportError, TransportTimeout

#: Timeout for establishing a TCP connection.
DEFAULT_CONNECT_TIMEOUT_S = 5.0
#: Timeout for one read (one response, or one slice of one).
DEFAULT_READ_TIMEOUT_S = 5.0
#: Hard ceiling on one connection's total lifetime; every read and
#: write is clipped against it, so a drip-feeding peer cannot pin a
#: grab slot forever.
DEFAULT_CONNECTION_DEADLINE_S = 60.0

_READ_CHUNK = 65536


@runtime_checkable
class Transport(Protocol):
    """The duplex byte-stream surface the protocol stack drives.

    ``write`` sends request bytes; ``read`` returns whatever the peer
    has produced (possibly a partial frame — the
    :class:`~repro.transport.connection.FrameReader` reassembles), and
    returns ``b""`` only when the peer closed the connection.  The
    byte counters feed the scan budget and the per-host record.

    Three lanes satisfy it: the simulator
    (:class:`~repro.netsim.net.SimSocket`), live sockets
    (:class:`SocketTransport`), and recorded traffic
    (:class:`~repro.transport.replay.ReplayTransport`).  The protocol
    is runtime-checkable, so a structural match is enough::

        >>> class Minimal:
        ...     bytes_sent = bytes_received = 0
        ...     def write(self, data): pass
        ...     def read(self): return b""
        ...     def close(self): pass
        >>> isinstance(Minimal(), Transport)
        True
        >>> isinstance(object(), Transport)
        False
    """

    bytes_sent: int
    bytes_received: int

    def write(self, data: bytes) -> None: ...

    def read(self) -> bytes: ...

    def close(self) -> None: ...


class WallClock:
    """Real time behind the :class:`~repro.util.simtime.SimClock`
    interface: ``now`` reads UTC, ``advance`` sleeps.

    Handing this to the grabber turns the traversal's simulated
    inter-request delay into actual pacing on a live connection, and
    makes the per-host time budget measure real elapsed time.
    """

    def __init__(self, sleep=time.sleep):
        self._sleep = sleep

    def now(self) -> datetime:
        return datetime.now(timezone.utc)

    def advance(self, seconds: float) -> datetime:
        if seconds < 0:
            raise ValueError("clock cannot move backwards")
        if seconds:
            self._sleep(seconds)
        return self.now()


class SocketTransport:
    """One live TCP connection over a blocking socket.

    Every operation enforces the per-operation timeout *and* the
    per-connection deadline; both surface as
    :class:`~repro.transport.messages.TransportTimeout`, which the
    scanner records as a ``timeout`` rather than mislabelling the host
    as "not OPC UA".  A write is counted before it is sent, but only
    after the deadline check, so a write refused by an exhausted
    deadline counts nothing.  Any other ``OSError`` (a reset, a broken
    pipe) propagates for the caller's failure taxonomy.
    """

    def __init__(
        self,
        sock: socket.socket,
        read_timeout_s: float = DEFAULT_READ_TIMEOUT_S,
        deadline: float | None = None,
    ):
        self._socket = sock
        self.read_timeout_s = read_timeout_s
        self._deadline = deadline
        self.bytes_sent = 0
        self.bytes_received = 0
        self.closed = False

    def _arm_timeout(self) -> float:
        timeout = self.read_timeout_s
        if self._deadline is not None:
            remaining = self._deadline - time.monotonic()
            if remaining <= 0:
                raise TransportTimeout("connection deadline exhausted")
            timeout = min(timeout, remaining)
        self._socket.settimeout(timeout)
        return timeout

    def write(self, data: bytes) -> None:
        if self.closed:
            raise TransportError("transport is closed")
        timeout = self._arm_timeout()
        self.bytes_sent += len(data)
        try:
            self._socket.sendall(data)
        except TimeoutError:
            raise TransportTimeout(f"write stalled for {timeout:g}s") from None

    def read(self) -> bytes:
        if self.closed:
            return b""
        timeout = self._arm_timeout()
        try:
            data = self._socket.recv(_READ_CHUNK)
        except TimeoutError:
            raise TransportTimeout(f"no data within {timeout:g}s") from None
        self.bytes_received += len(data)
        return data

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._socket.close()


def connect_blocking(
    host: str,
    port: int,
    connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
    read_timeout_s: float = DEFAULT_READ_TIMEOUT_S,
    connection_deadline_s: float | None = DEFAULT_CONNECTION_DEADLINE_S,
) -> SocketTransport:
    """Open a live connection for synchronous callers.

    Raises :class:`TransportTimeout` when the connect timeout expires,
    and propagates any other ``OSError`` (refusal, unreachable
    network) for the caller to map into its own failure taxonomy.
    """
    try:
        sock = socket.create_connection((host, port), connect_timeout_s)
    except TimeoutError:
        raise TransportTimeout(
            f"connect to {host}:{port} timed out "
            f"after {connect_timeout_s:g}s"
        ) from None
    deadline = (
        time.monotonic() + connection_deadline_s
        if connection_deadline_s is not None
        else None
    )
    return SocketTransport(sock, read_timeout_s, deadline)
