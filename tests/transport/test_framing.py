import pytest
from hypothesis import given, strategies as st

from repro.transport.connection import FrameReader, encode_frame
from repro.transport.messages import (
    HEADER_SIZE,
    AcknowledgeMessage,
    ErrorMessage,
    HelloMessage,
    MessageHeader,
    MessageType,
    TransportError,
)


class TestMessageHeader:
    def test_encode_decode(self):
        header = MessageHeader(MessageType.HELLO, "F", 32)
        assert MessageHeader.decode(header.encode()) == header

    def test_unknown_type_rejected(self):
        with pytest.raises(TransportError):
            MessageHeader.decode(b"XXXF\x20\x00\x00\x00")

    def test_bad_chunk_type_rejected(self):
        with pytest.raises(TransportError):
            MessageHeader.decode(b"MSGX\x20\x00\x00\x00")

    def test_short_header_rejected(self):
        with pytest.raises(TransportError):
            MessageHeader.decode(b"MSG")

    def test_size_below_header_rejected(self):
        with pytest.raises(TransportError):
            MessageHeader.decode(b"MSGF\x04\x00\x00\x00")


class TestHelloAck:
    def test_hello_round_trip(self):
        hello = HelloMessage(endpoint_url="opc.tcp://10.0.0.1:4840/")
        assert HelloMessage.decode_body(hello.encode_body()) == hello

    def test_hello_null_url(self):
        hello = HelloMessage(endpoint_url=None)
        assert HelloMessage.decode_body(hello.encode_body()).endpoint_url is None

    def test_ack_round_trip(self):
        ack = AcknowledgeMessage(receive_buffer_size=8192)
        assert AcknowledgeMessage.decode_body(ack.encode_body()) == ack

    def test_error_round_trip(self):
        err = ErrorMessage(error_code=0x80130000, reason="rejected")
        assert ErrorMessage.decode_body(err.encode_body()) == err


class TestFrameReader:
    def test_single_frame(self):
        frame = encode_frame(MessageType.HELLO, "F", b"body")
        reader = FrameReader()
        reader.feed(frame)
        header, body = reader.next_frame()
        assert header.message_type == MessageType.HELLO
        assert body == b"body"
        assert reader.next_frame() is None

    def test_partial_delivery(self):
        frame = encode_frame(MessageType.MESSAGE, "F", b"x" * 100)
        reader = FrameReader()
        reader.feed(frame[:5])
        assert reader.next_frame() is None
        reader.feed(frame[5:50])
        assert reader.next_frame() is None
        reader.feed(frame[50:])
        header, body = reader.next_frame()
        assert body == b"x" * 100

    def test_multiple_frames_in_one_feed(self):
        data = encode_frame(MessageType.MESSAGE, "C", b"a") + encode_frame(
            MessageType.MESSAGE, "F", b"b"
        )
        reader = FrameReader()
        reader.feed(data)
        frames = list(reader.drain_frames())
        assert [body for _, body in frames] == [b"a", b"b"]

    def test_oversized_frame_rejected(self):
        reader = FrameReader(max_frame_size=64)
        reader.feed(encode_frame(MessageType.MESSAGE, "F", b"y" * 100))
        with pytest.raises(TransportError):
            reader.next_frame()

    def test_undersized_frame_rejected_not_looped(self):
        """Regression: a header whose size field is smaller than the
        header itself can never be consumed, so yielding it (as an
        empty frame) would make drain_frames spin forever.  It must
        raise instead — and keep raising, never yielding."""
        malformed = b"MSGF" + (4).to_bytes(4, "little") + b"tail"
        reader = FrameReader()
        reader.feed(malformed)
        for _ in range(3):
            with pytest.raises(TransportError):
                next(iter(reader.drain_frames()))

    @given(st.integers(0, HEADER_SIZE - 1))
    def test_fuzzed_small_sizes_all_rejected(self, size):
        reader = FrameReader()
        reader.feed(b"MSGF" + size.to_bytes(4, "little"))
        with pytest.raises(TransportError):
            reader.next_frame()

    @given(st.binary(min_size=HEADER_SIZE, max_size=64))
    def test_fuzzed_headers_always_progress(self, data):
        """Whatever bytes arrive, next_frame either needs more input,
        consumes a frame, or raises — it never yields without
        consuming (the infinite-drain failure mode)."""
        reader = FrameReader(max_frame_size=1024)
        reader.feed(data)
        before = reader.buffered
        try:
            frame = reader.next_frame()
        except TransportError:
            return
        if frame is not None:
            assert reader.buffered < before

    @given(st.lists(st.binary(max_size=50), min_size=1, max_size=10), st.data())
    def test_arbitrary_split_points(self, bodies, data):
        stream = b"".join(
            encode_frame(MessageType.MESSAGE, "F", body) for body in bodies
        )
        reader = FrameReader()
        # Feed in random-size pieces.
        pos = 0
        received = []
        while pos < len(stream):
            step = data.draw(st.integers(1, len(stream) - pos))
            reader.feed(stream[pos : pos + step])
            pos += step
            received.extend(body for _, body in reader.drain_frames())
        assert received == bodies
