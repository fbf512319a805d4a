"""OPC UA TCP transport (OPC 10000-6 §7): message framing.

The binary interface on TCP/4840 frames every message with a 3-letter
type, a chunk marker, and a length; connections start with a
Hello/Acknowledge exchange.  Every message this stack sends travels as
one final (``F``) chunk, and the client refuses a reply in a
non-final (``C``) or abort (``A``) chunk rather than decode part of a
message.  This layer is deliberately independent of the
secure-channel crypto — it moves opaque frames.
"""

from repro.transport.messages import (
    AcknowledgeMessage,
    ErrorMessage,
    HelloMessage,
    MessageHeader,
    MessageType,
    TransportError,
    TransportTimeout,
)
from repro.transport.connection import FrameReader, encode_frame
from repro.transport.socket_io import (
    SocketTransport,
    Transport,
    WallClock,
    connect_blocking,
)
from repro.transport.capture import (
    CaptureCorpus,
    CaptureFormatError,
    CaptureNetwork,
    CaptureRecorder,
    CaptureTransport,
    TargetCapture,
    read_corpus,
    write_corpus,
)
from repro.transport.replay import (
    ReplayError,
    ReplayMismatch,
    ReplayNetwork,
    ReplayTransport,
)

__all__ = [
    "AcknowledgeMessage",
    "CaptureCorpus",
    "CaptureFormatError",
    "CaptureNetwork",
    "CaptureRecorder",
    "CaptureTransport",
    "ErrorMessage",
    "FrameReader",
    "HelloMessage",
    "MessageHeader",
    "MessageType",
    "ReplayError",
    "ReplayMismatch",
    "ReplayNetwork",
    "ReplayTransport",
    "SocketTransport",
    "TargetCapture",
    "Transport",
    "TransportError",
    "TransportTimeout",
    "WallClock",
    "connect_blocking",
    "encode_frame",
    "read_corpus",
    "write_corpus",
]
