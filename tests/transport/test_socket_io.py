"""Live socket transport tests (loopback only; no external traffic)."""

from __future__ import annotations

import socket
import struct
import threading
import time
from contextlib import contextmanager, suppress

import pytest

from repro.client.errors import categorize_error
from repro.server import TcpServerHost
from repro.transport.messages import TransportTimeout
from repro.transport.socket_io import (
    Transport,
    WallClock,
    connect_blocking,
)


@contextmanager
def _peer(handler):
    """Run ``handler(conn)`` on the first connection to a loopback
    port, in a thread; yields the port."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        try:
            conn, _ = listener.accept()
        except OSError:
            return  # shut down before anyone connected
        with conn, suppress(OSError):
            handler(conn)

    threading.Thread(target=serve, daemon=True).start()
    try:
        yield listener.getsockname()[1]
    finally:
        # close() alone would leave the blocked accept() listening.
        with suppress(OSError):
            listener.shutdown(socket.SHUT_RDWR)
        listener.close()


def _echo(conn):
    while data := conn.recv(65536):
        conn.sendall(data)


def _swallow(conn):
    """Read everything, answer nothing, until the client hangs up."""
    while conn.recv(65536):
        pass


@pytest.fixture()
def echo_server():
    with _peer(_echo) as port:
        yield port


class TestSocketTransport:
    def test_echo_round_trip_and_counters(self, echo_server):
        transport = connect_blocking("127.0.0.1", echo_server)
        try:
            transport.write(b"ping")
            received = b""
            while len(received) < 4:
                chunk = transport.read()
                assert chunk, "peer closed before echoing"
                received += chunk
            assert received == b"ping"
            assert transport.bytes_sent == 4
            assert transport.bytes_received == 4
        finally:
            transport.close()

    def test_satisfies_transport_protocol(self, echo_server):
        transport = connect_blocking("127.0.0.1", echo_server)
        try:
            assert isinstance(transport, Transport)
        finally:
            transport.close()

    def test_sim_socket_satisfies_transport_protocol(self):
        from repro.netsim.net import SimSocket
        from repro.util.simtime import SimClock

        class _NullConnection:
            closed = False

            def receive(self, data: bytes) -> bytes:
                return b""

        sim_socket = SimSocket(_NullConnection(), SimClock())
        assert isinstance(sim_socket, Transport)

    def test_read_timeout_raises(self):
        with _peer(_swallow) as port:
            transport = connect_blocking(
                "127.0.0.1", port, read_timeout_s=0.2
            )
            try:
                transport.write(b"anyone there?")
                with pytest.raises(TransportTimeout):
                    transport.read()
            finally:
                transport.close()

    def test_eof_reads_empty(self):
        with _peer(lambda conn: None) as port:
            transport = connect_blocking("127.0.0.1", port)
            try:
                assert transport.read() == b""
            finally:
                transport.close()

    def test_connection_deadline_clips_reads(self):
        with _peer(_swallow) as port:
            transport = connect_blocking(
                "127.0.0.1",
                port,
                read_timeout_s=30.0,
                connection_deadline_s=0.3,
            )
            try:
                started = time.monotonic()
                with pytest.raises(TransportTimeout):
                    transport.read()
                    transport.read()  # deadline already exhausted
                assert time.monotonic() - started < 5
            finally:
                transport.close()

    def test_connect_refused_propagates_oserror(self):
        # Listen, then shut down at once: a port nothing listens on.
        with _peer(_swallow) as port:
            pass
        with pytest.raises(OSError):
            connect_blocking("127.0.0.1", port, connect_timeout_s=2)

    def test_connect_timeout_is_recorded_as_timeout(self, monkeypatch):
        """``TimeoutError`` is an ``OSError`` too; a connect timeout
        must not reach the live network as an unreachable host."""
        from repro.netsim.net import HostDown
        from repro.scanner.campaign import LiveNetwork
        from repro.util.ipaddr import parse_ipv4

        def stalled(address, timeout):
            raise TimeoutError("timed out")

        monkeypatch.setattr(socket, "create_connection", stalled)
        with pytest.raises(TransportTimeout) as caught:
            connect_blocking("127.0.0.1", 4840, connect_timeout_s=2)
        assert str(caught.value) == (
            "connect to 127.0.0.1:4840 timed out after 2s"
        )
        with pytest.raises(HostDown) as caught:
            LiveNetwork().connect(parse_ipv4("127.0.0.1"), 4840)
        assert categorize_error(caught.value) == "timeout"

    def test_partial_frame_delivery_reassembles(self):
        """Frames split across TCP segments reach the client whole."""
        from repro.transport.connection import FrameReader, encode_frame
        from repro.transport.messages import MessageType

        frame = encode_frame(MessageType.MESSAGE, "F", b"z" * 300)

        def handler(conn):
            conn.recv(65536)
            conn.sendall(frame[:11])
            time.sleep(0.05)
            conn.sendall(frame[11:])

        with _peer(handler) as port:
            transport = connect_blocking("127.0.0.1", port)
            try:
                transport.write(b"go")
                reader = FrameReader()
                while True:
                    reader.feed(transport.read())
                    parsed = reader.next_frame()
                    if parsed is not None:
                        break
                header, body = parsed
                assert body == b"z" * 300
            finally:
                transport.close()

    def test_write_to_peer_that_never_reads_stalls(self):
        """A write the peer never drains times out, and still counts
        the bytes it attempted (the capture lane's ``counted``)."""
        release = threading.Event()
        with _peer(lambda conn: release.wait(10)) as port:
            transport = connect_blocking(
                "127.0.0.1", port, read_timeout_s=0.5
            )
            try:
                payload = bytes(64 << 20)
                with pytest.raises(TransportTimeout) as caught:
                    transport.write(payload)
                assert str(caught.value) == "write stalled for 0.5s"
                assert transport.bytes_sent == len(payload)
            finally:
                transport.close()
                release.set()

    def test_exhausted_deadline_refuses_io_and_counts_nothing(
        self, echo_server
    ):
        transport = connect_blocking(
            "127.0.0.1", echo_server, connection_deadline_s=0.0
        )
        try:
            for operation in (
                lambda: transport.write(b"late"),
                transport.read,
            ):
                with pytest.raises(TransportTimeout) as caught:
                    operation()
                assert str(caught.value) == "connection deadline exhausted"
            assert transport.bytes_sent == 0
            assert transport.bytes_received == 0
        finally:
            transport.close()

    def test_peer_reset_raises_connection_reset(self):
        def reset(conn):
            # Linger 0: close() sends RST instead of FIN.
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )

        with _peer(reset) as port:
            transport = connect_blocking("127.0.0.1", port)
            try:
                with pytest.raises(ConnectionResetError) as caught:
                    transport.read()
                assert categorize_error(caught.value) == "unreachable"
            finally:
                transport.close()


class TestTcpServerHost:
    def test_stop_returns_at_once_and_refuses_new_connections(self):
        class _Echo:
            closed = False

            def receive(self, data: bytes) -> bytes:
                return data

        host = TcpServerHost(_Echo)
        _, port = host.start()
        transport = connect_blocking("127.0.0.1", port)
        try:
            transport.write(b"ping")
            assert transport.read() == b"ping"
        finally:
            transport.close()
        started = time.monotonic()
        host.stop()
        assert time.monotonic() - started < 0.25
        with pytest.raises(ConnectionRefusedError):
            connect_blocking("127.0.0.1", port, connect_timeout_s=2)


class TestWallClock:
    def test_now_is_utc(self):
        assert WallClock().now().tzinfo is not None

    def test_advance_sleeps(self):
        slept = []
        clock = WallClock(sleep=slept.append)
        clock.advance(0.25)
        clock.advance(0)  # zero advance must not sleep at all
        assert slept == [0.25]

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            WallClock().advance(-1)
