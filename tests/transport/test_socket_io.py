"""Live socket transport tests (loopback only; no external traffic)."""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro.transport.messages import TransportTimeout
from repro.transport.socket_io import (
    Transport,
    WallClock,
    connect_blocking,
    shared_io_loop,
)


def _start_server(handler) -> tuple[asyncio.Server, int]:
    loop = shared_io_loop()
    server = asyncio.run_coroutine_threadsafe(
        asyncio.start_server(handler, "127.0.0.1", 0), loop
    ).result(10)
    return server, server.sockets[0].getsockname()[1]


def _stop_server(server: asyncio.Server) -> None:
    loop = shared_io_loop()

    async def shutdown():
        server.close()
        await server.wait_closed()

    try:
        asyncio.run_coroutine_threadsafe(shutdown(), loop).result(10)
    except FutureTimeoutError:
        pass


@pytest.fixture()
def echo_server():
    async def handler(reader, writer):
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                writer.write(data)
                await writer.drain()
        finally:
            writer.close()

    server, port = _start_server(handler)
    yield port
    _stop_server(server)


class TestBlockingSocketTransport:
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

        socket = SimSocket(_NullConnection(), SimClock())
        assert isinstance(socket, Transport)

    def test_read_timeout_raises(self):
        async def handler(reader, writer):
            await reader.read(65536)  # swallow, never answer

        server, port = _start_server(handler)
        try:
            transport = connect_blocking(
                "127.0.0.1", port, read_timeout_s=0.2
            )
            try:
                transport.write(b"anyone there?")
                with pytest.raises(TransportTimeout):
                    transport.read()
            finally:
                transport.close()
        finally:
            _stop_server(server)

    def test_eof_reads_empty(self):
        async def handler(reader, writer):
            writer.close()

        server, port = _start_server(handler)
        try:
            transport = connect_blocking("127.0.0.1", port)
            try:
                assert transport.read() == b""
            finally:
                transport.close()
        finally:
            _stop_server(server)

    def test_connection_deadline_clips_reads(self):
        async def handler(reader, writer):
            await reader.read(65536)  # silent peer

        server, port = _start_server(handler)
        try:
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
        finally:
            _stop_server(server)

    def test_connect_refused_propagates_oserror(self):
        async def handler(reader, writer):
            writer.close()

        # Bind then immediately close to get a port nothing listens on.
        server, port = _start_server(handler)
        _stop_server(server)
        with pytest.raises(OSError):
            connect_blocking("127.0.0.1", port, connect_timeout_s=2)

    def test_partial_frame_delivery_reassembles(self, echo_server):
        """Frames split across TCP segments reach the client whole."""
        from repro.transport.connection import FrameReader, encode_frame
        from repro.transport.messages import MessageType

        frame = encode_frame(MessageType.MESSAGE, "F", b"z" * 300)

        async def handler(reader, writer):
            await reader.read(65536)
            writer.write(frame[:11])
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.write(frame[11:])
            await writer.drain()

        server, port = _start_server(handler)
        try:
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
        finally:
            _stop_server(server)


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
