"""The simulated lane's stall deadline (slow-loris defense).

Regression suite for the deadline-enforcement bug: a peer that kept
dribbling single bytes reset no timer anywhere, so one hostile writer
could pin a scan task forever.  ``SimSocket.read`` now accounts the
*cumulative* seconds spent in ``poll()`` per socket and raises
:class:`TransportTimeout` once they cross the network's stall
deadline — dribbling never refreshes the budget.
"""

from __future__ import annotations

import pytest

from repro.netsim.net import (
    DEFAULT_STALL_TIMEOUT_S,
    SimHost,
    SimNetwork,
    SimSocket,
)
from repro.transport.messages import TransportTimeout
from repro.util.ipaddr import parse_ipv4
from repro.util.simtime import SimClock, parse_utc


class DribblingConnection:
    """Stalls ``interval_s`` per poll, then yields a single byte."""

    def __init__(self, interval_s: float):
        self.closed = False
        self.interval_s = interval_s
        self.polls = 0

    def receive(self, data: bytes) -> bytes:
        return b""

    def poll(self) -> tuple[float, bytes]:
        self.polls += 1
        return (self.interval_s, b"\x00")


class AnsweringConnection:
    """A normal synchronous responder — no ``poll`` attribute."""

    closed = False

    def receive(self, data: bytes) -> bytes:
        return b"pong"


def make_socket(connection, stall_timeout_s=DEFAULT_STALL_TIMEOUT_S):
    clock = SimClock(parse_utc("2020-08-30"))
    return (
        SimSocket(connection, clock, stall_timeout_s=stall_timeout_s),
        clock,
    )


class TestStallDeadline:
    def test_dribbling_peer_hits_deadline(self):
        connection = DribblingConnection(interval_s=7.5)
        socket, clock = make_socket(connection)
        start = clock.now()
        # Each read returns the dribbled byte; the budget accumulates.
        for _ in range(4):
            assert socket.read() == b"\x00"
        with pytest.raises(TransportTimeout, match="stalled"):
            socket.read()
        assert socket.closed
        elapsed = (clock.now() - start).total_seconds()
        assert elapsed == pytest.approx(DEFAULT_STALL_TIMEOUT_S)

    def test_budget_is_cumulative_across_reads(self):
        """The deadline must not reset per read() call — that is the
        exact bug a byte-per-poll writer exploits."""
        connection = DribblingConnection(interval_s=10.0)
        socket, _ = make_socket(connection, stall_timeout_s=25.0)
        assert socket.read() == b"\x00"  # 10 s
        assert socket.read() == b"\x00"  # 20 s
        assert socket.read() == b"\x00"  # 30 s — budget now exhausted
        with pytest.raises(TransportTimeout):
            socket.read()
        assert connection.polls == 3

    def test_clock_advances_by_stalled_time(self):
        connection = DribblingConnection(interval_s=4.0)
        socket, clock = make_socket(connection)
        start = clock.now()
        socket.read()
        assert (clock.now() - start).total_seconds() == pytest.approx(4.0)

    def test_custom_deadline_respected(self):
        connection = DribblingConnection(interval_s=1.0)
        socket, _ = make_socket(connection, stall_timeout_s=3.0)
        for _ in range(3):
            socket.read()
        with pytest.raises(TransportTimeout):
            socket.read()

    def test_network_threads_deadline_through_connect(self):
        net = SimNetwork(
            SimClock(parse_utc("2020-08-30")), stall_timeout_s=2.0
        )
        host = SimHost(address=parse_ipv4("10.0.0.1"), asn=None)
        host.listen(4840, lambda: DribblingConnection(interval_s=1.0))
        net.add_host(host)
        socket = net.connect(parse_ipv4("10.0.0.1"), 4840)
        socket.read()
        socket.read()
        with pytest.raises(TransportTimeout):
            socket.read()

    def test_pollless_connection_unaffected(self):
        """Connections without ``poll`` keep the historical semantics:
        read() returns whatever write() buffered, empty or not — the
        golden digests pin this path bit-for-bit."""
        socket, clock = make_socket(AnsweringConnection())
        start = clock.now()
        socket.write(b"ping")
        assert socket.read() == b"pong"
        assert socket.read() == b""  # no data, no stall accounting
        assert not socket.closed
        assert (clock.now() - start).total_seconds() == 0.0

    def test_stall_stops_when_peer_closes(self):
        """A poller that hangs up mid-dribble ends the wait without
        burning the rest of the budget."""

        class ClosingDribbler(DribblingConnection):
            def poll(self):
                self.closed = True
                return (1.0, b"")

        socket, clock = make_socket(ClosingDribbler(interval_s=1.0))
        start = clock.now()
        assert socket.read() == b""
        assert (clock.now() - start).total_seconds() == pytest.approx(1.0)
