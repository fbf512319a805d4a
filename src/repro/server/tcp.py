"""Serve a :class:`~repro.server.engine.UaServer` over real TCP.

The engine's :class:`~repro.server.engine.ServerConnection` is a
synchronous bytes-in/bytes-out state machine — exactly what the
network simulator feeds.  This module binds the same machine to a
listening socket, with one accept thread and one blocking thread per
connection, so the live transport lane can be exercised end-to-end
against the in-repo engine: loopback tests, and authorized lab
deployments.  It is not an Internet-facing server.
"""

from __future__ import annotations

import socket
import threading
from contextlib import suppress

from repro.server.engine import UaServer

_READ_CHUNK = 65536


class TcpServerHost:
    """One byte-stream engine listening on a real socket.

    ``server`` is usually a :class:`~repro.server.engine.UaServer`,
    but anything exposing ``new_connection()`` — or a bare zero-arg
    connection factory (a callable returning an object with
    ``receive(bytes) -> bytes``) — can be hosted.  That generality is
    what lets capture-corpus fixtures put a *non*-OPC-UA service
    behind a real port (the 0.5 ‰-path junk responder) next to a real
    engine.

    :meth:`stop` closes the listener at once; connections already
    accepted run on until their peer hangs up.  Use as a context
    manager::

        with TcpServerHost(server) as (host, port):
            ...  # connect to (host, port)
    """

    def __init__(
        self,
        server: UaServer,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        factory = getattr(server, "new_connection", None)
        if factory is None:
            if not callable(server):
                raise TypeError(
                    "server must expose new_connection() or be a "
                    "connection factory callable"
                )
            factory = server
        self._connection_factory = factory
        self._host = host
        self._port = port
        self._listener: socket.socket | None = None
        self.address: tuple[str, int] | None = None

    def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        if self._listener is not None:
            raise RuntimeError("already started")
        listener = socket.create_server((self._host, self._port))
        self._listener = listener
        self.address = listener.getsockname()[:2]
        threading.Thread(
            target=self._accept, args=(listener,), daemon=True
        ).start()
        return self.address

    def stop(self) -> None:
        listener, self._listener = self._listener, None
        if listener is None:
            return
        # On Linux, close() alone leaves a blocked accept() listening;
        # shutdown() wakes it and refuses new connections.
        with suppress(OSError):
            listener.shutdown(socket.SHUT_RDWR)
        listener.close()

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # stop() shut the listener down
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        connection = self._connection_factory()
        # A peer reset ends the exchange: there is nothing to answer.
        with conn, suppress(OSError):
            while not connection.closed:
                data = conn.recv(_READ_CHUNK)
                if not data:
                    break
                response = connection.receive(data)
                if response:
                    conn.sendall(response)

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False
