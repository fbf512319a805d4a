"""The simulated network core: hosts, listeners, and sockets.

A host registers listeners per TCP port; each listener is a factory
returning a connection object with a ``receive(bytes) -> bytes``
method (the shape of :class:`repro.server.engine.ServerConnection`).
Connecting yields a :class:`SimSocket` whose ``write``/``read`` pair
models a synchronous request/response exchange.  A simulated round
trip costs no simulated time; only a stalling peer advances the clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.transport.messages import TransportTimeout
from repro.util.ipaddr import format_ipv4
from repro.util.simtime import SimClock

#: Cumulative seconds a reader waits on a stalling peer before the
#: simulated lane raises :class:`TransportTimeout` — the per-grab
#: deadline a slow-loris writer runs into.
DEFAULT_STALL_TIMEOUT_S = 30.0


class ConnectionRefused(Exception):
    """No listener on the target port."""

    #: Coarse failure class for the scanner's rejection breakdown
    #: (:func:`repro.client.errors.categorize_error`).
    category = "refused"


class HostDown(Exception):
    """No host at the target address."""

    category = "unreachable"


@dataclass
class SimHost:
    """One addressable machine."""

    address: int
    asn: int | None = None
    listeners: dict[int, object] = field(default_factory=dict)
    # Tags let the population builder annotate ground truth (never
    # visible to the scanner).
    tags: dict[str, object] = field(default_factory=dict)

    def listen(self, port: int, connection_factory) -> None:
        if port in self.listeners:
            raise ValueError(
                f"port {port} already bound on {format_ipv4(self.address)}"
            )
        self.listeners[port] = connection_factory


class SimSocket:
    """A connected TCP-ish byte stream with byte accounting.

    Connections normally answer synchronously inside ``write``.  A
    connection may additionally implement ``poll() -> (seconds,
    bytes)`` — a peer that stalls before dribbling out more bytes
    (the slow-loris personality).  ``read`` then waits on the
    simulated clock and enforces a cumulative stall deadline: the
    total seconds spent polling one socket never resets, so dribbling
    a byte per poll cannot keep a grab alive forever.
    """

    def __init__(
        self,
        connection,
        clock: SimClock,
        stall_timeout_s: float = DEFAULT_STALL_TIMEOUT_S,
    ):
        self._connection = connection
        self._clock = clock
        self._inbox = bytearray()
        self._stall_timeout_s = stall_timeout_s
        self._stalled_s = 0.0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.closed = False

    def write(self, data: bytes) -> None:
        if self.closed:
            raise ConnectionRefused("socket is closed")
        self.bytes_sent += len(data)
        response = self._connection.receive(data)
        self.bytes_received += len(response)
        self._inbox.extend(response)
        if getattr(self._connection, "closed", False) and not self._inbox:
            self.closed = True

    def read(self) -> bytes:
        poll = getattr(self._connection, "poll", None)
        while not self._inbox and poll is not None:
            if self._stalled_s >= self._stall_timeout_s:
                self.closed = True
                raise TransportTimeout(
                    f"peer stalled for {self._stalled_s:.0f}s"
                )
            waited_s, data = poll()
            self._clock.advance(waited_s)
            self._stalled_s += waited_s
            self.bytes_received += len(data)
            self._inbox.extend(data)
            if getattr(self._connection, "closed", False):
                break
        out = bytes(self._inbox)
        self._inbox.clear()
        return out

    def close(self) -> None:
        self.closed = True


class SimNetwork:
    """Registry of hosts plus the connect() entry point."""

    def __init__(
        self,
        clock: SimClock | None = None,
        stall_timeout_s: float = DEFAULT_STALL_TIMEOUT_S,
    ):
        self.clock = clock or SimClock()
        self.stall_timeout_s = stall_timeout_s
        self._hosts: dict[int, SimHost] = {}

    def add_host(self, host: SimHost) -> SimHost:
        if host.address in self._hosts:
            raise ValueError(
                f"duplicate host address: {format_ipv4(host.address)}"
            )
        self._hosts[host.address] = host
        return host

    def host(self, address: int) -> SimHost | None:
        return self._hosts.get(address)

    def hosts(self) -> list[SimHost]:
        return list(self._hosts.values())

    def __len__(self) -> int:
        return len(self._hosts)

    def syn(self, address: int, port: int) -> bool:
        """zmap-style probe: is the port open? (no data exchanged)"""
        host = self._hosts.get(address)
        return host is not None and port in host.listeners

    def connect(self, address: int, port: int) -> SimSocket:
        return self._make_socket(address, port, self.clock)

    def _make_socket(self, address, port, clock) -> SimSocket:
        host = self._hosts.get(address)
        if host is None:
            raise HostDown(f"no host at {format_ipv4(address)}")
        factory = host.listeners.get(port)
        if factory is None:
            raise ConnectionRefused(
                f"{format_ipv4(address)}:{port} refused the connection"
            )
        connection = factory()
        return SimSocket(
            connection, clock, stall_timeout_s=self.stall_timeout_s
        )

    def task_view(self) -> "NetworkView":
        """A per-task facade with an isolated clock.

        Parallel grabs must not race on the shared sweep clock (the
        traversal paces itself by advancing it, and a stalling peer
        spends its deadline on it), so each scan task gets a view whose
        clock starts at the current sweep time.  The serial executor
        uses the same views, which is what makes all backends
        bit-identical.
        """
        return NetworkView(self, SimClock(self.clock.now()))


class NetworkView:
    """Shares a :class:`SimNetwork`'s hosts, owns its own clock."""

    def __init__(self, network: SimNetwork, clock: SimClock):
        self._network = network
        self.clock = clock

    def host(self, address: int) -> SimHost | None:
        return self._network.host(address)

    def hosts(self) -> list[SimHost]:
        return self._network.hosts()

    def syn(self, address: int, port: int) -> bool:
        return self._network.syn(address, port)

    def probe_many(self, addresses, port: int) -> list[int]:
        """zmap-style SYN sweep of one batch: the open subset of
        ``addresses``, in input order (no data exchanged)."""
        hosts_get = self._network._hosts.get
        opens: list[int] = []
        append = opens.append
        for address in addresses:
            host = hosts_get(address)
            if host is not None and port in host.listeners:
                append(address)
        return opens

    def connect(self, address: int, port: int) -> SimSocket:
        return self._network._make_socket(address, port, self.clock)
