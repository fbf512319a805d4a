"""OPC UA TCP transport (OPC 10000-6 §7): message framing and chunking.

The binary interface on TCP/4840 frames every message with a 3-letter
type, a chunk marker, and a length; connections start with a
Hello/Acknowledge exchange.  This layer is deliberately independent of
the secure-channel crypto — it moves opaque chunks.
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
from repro.transport.chunks import (
    ChunkAssembler,
    ChunkType,
    split_into_chunks,
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
    "ChunkAssembler",
    "ChunkType",
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
    "split_into_chunks",
    "write_corpus",
]
