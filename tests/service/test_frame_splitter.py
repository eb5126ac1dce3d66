"""The sans-IO frame splitter: the one parser of the wire layout.

However a byte stream is cut into reads, the frames that come out are
the frames that went in; a stream that stops inside a frame is a typed
:class:`WireError` at EOF, never a hang; and a head announcing an
empty body, or a length past its bound, is refused the moment its
varint is in, before a byte of the body or sidecar it announces is
accumulated.
"""

import socket

import pytest

from repro.service import protocol
from repro.service.protocol import (
    MAX_FRAME_BYTES, MAX_SIDECAR_BYTES, FrameSplitter, WireError,
    pack_head)

#: A burst with every frame shape in it: plain, sidecar, a batch with
#: one combined sidecar, an empty-args op, a response with a sidecar.
FRAMES = [
    (protocol.encode_body(protocol.request(
        1, "hello", {"user": "fuzz",
                     "version": protocol.PROTOCOL_VERSION})), b""),
    (protocol.encode_body(protocol.request(
        2, "write", {"oid": 12345, "data": 64})), b"\xab" * 64),
    (protocol.encode_body([
        protocol.request(3, "read", {"oid": 12345, "n": 64}),
        protocol.request(4, "ping"),
        protocol.request(5, "write", {"oid": 9, "data": 8}),
        protocol.request(6, "write", {"oid": 7, "data": 3}),
    ]), b"\x01" * 8 + b"\x02" * 3),
    (protocol.encode_body(protocol.request(7, "ping")), b""),
    (protocol.encode_body(protocol.ok_response(8, 300)),
     bytes(range(256)) + b"x" * 44),
]
STREAM = b"".join(protocol.frame_from_body(body, sidecar or None)
                  for body, sidecar in FRAMES)
#: Stream offsets at which a frame ends (0 = before the first).
BOUNDARIES = [0]
for _body, _sidecar in FRAMES:
    BOUNDARIES.append(BOUNDARIES[-1] + len(
        protocol.frame_from_body(_body, _sidecar or None)))


def varint(n, size=None):
    """``n`` as a ``size``-byte varint (by default its shortest form),
    whatever its value: so a head
    :func:`~repro.service.protocol.pack_head` would refuse is built."""
    size = size or (1 if n < 0x40 else 2 if n < 0x4000 else 4)
    return (n | {1: 0, 2: 0x4000, 4: 0x8000_0000}[size]).to_bytes(
        size, "big")


def split(*chunks):
    splitter = FrameSplitter()
    frames = [frame for chunk in chunks
              for frame in splitter.feed(chunk)]
    return frames, splitter


class TestEveryCutPoint:
    def test_whole_stream_feed(self):
        frames, splitter = split(STREAM)
        assert frames == FRAMES
        splitter.eof()                  # between frames: clean

    def test_two_chunks_at_every_cut(self):
        for cut in range(len(STREAM) + 1):
            splitter = FrameSplitter()
            first = list(splitter.feed(STREAM[:cut]))
            # Exactly the frames wholly inside the first chunk...
            whole = sum(1 for end in BOUNDARIES[1:] if end <= cut)
            assert first == FRAMES[:whole], cut
            # ...and the rest once the second chunk lands.
            assert first + list(splitter.feed(STREAM[cut:])) == FRAMES, cut
            splitter.eof()

    def test_n_chunks_of_every_small_size(self):
        for size in range(1, 40):
            chunks = [STREAM[i:i + size]
                      for i in range(0, len(STREAM), size)]
            frames, splitter = split(*chunks)
            assert frames == FRAMES, size
            splitter.eof()

    def test_truncation_at_every_cut_is_wire_error_on_eof(self):
        for cut in range(len(STREAM) + 1):
            frames, splitter = split(STREAM[:cut])
            assert frames == FRAMES[:len(frames)]
            if cut in BOUNDARIES:
                splitter.eof()
            else:
                with pytest.raises(WireError, match="truncated"):
                    splitter.eof()

    def test_a_large_frame_in_many_reads(self):
        sidecar = bytes(range(256)) * 4096          # 1 MiB
        body = protocol.encode_body(protocol.ok_response(
            1, len(sidecar)))
        stream = protocol.frame_from_body(body, sidecar) + STREAM
        chunks = [stream[i:i + 4096]
                  for i in range(0, len(stream), 4096)]
        frames, _ = split(*chunks)
        assert frames == [(body, sidecar)] + FRAMES


class TestBoundsFromTheHeaderAlone:
    def test_oversize_body_length(self):
        for head in (varint((MAX_FRAME_BYTES + 1) << 1),
                     varint((MAX_FRAME_BYTES + 1) << 1 | 1),
                     varint(0x3FFF_FFFF)):
            # The head fed, not one byte of the announced body.
            with pytest.raises(WireError, match="frame length"):
                split(head)

    def test_an_empty_body_is_refused(self):
        # Revision 5's four-byte length word for a frame without a
        # sidecar (its hello) reads this way: its first byte, 0,
        # announces an empty body.  No frame has one.
        for head in (b"\x00", b"\x01", varint(0, 2), varint(1, 4),
                     b"\x00\x00\x00\x16"):
            with pytest.raises(WireError, match="frame length 0"):
                split(head)

    def test_an_8_byte_form_is_refused(self):
        for head in (b"\xc0", varint(1 << 1 | 1, 1) + b"\xff"):
            with pytest.raises(WireError, match="8-byte"):
                split(head)

    def test_oversize_sidecar_length(self):
        body = protocol.encode_body(protocol.request(1, "ping"))
        flagged = varint(len(body) << 1 | 1, 1)
        # The body's varint says a sidecar follows: waited for...
        assert split(flagged)[0] == []
        # ... and refused from its own varint, before the body.
        with pytest.raises(WireError, match="sidecar length"):
            split(flagged + varint(MAX_SIDECAR_BYTES + 1))

    def test_the_largest_legal_lengths_are_waited_for(self):
        splitter = FrameSplitter()
        assert list(splitter.feed(
            pack_head(MAX_FRAME_BYTES, MAX_SIDECAR_BYTES))) == []
        with pytest.raises(WireError, match="truncated"):
            splitter.eof()

    def test_frames_ahead_of_a_bad_header_are_handed_out_first(self):
        splitter = FrameSplitter()
        got = []
        with pytest.raises(WireError):
            for frame in splitter.feed(
                    STREAM + varint((MAX_FRAME_BYTES + 1) << 1)):
                got.append(frame)
        assert got == FRAMES


class TestBlockingReader:
    def test_a_burst_in_one_segment_then_clean_eof(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(STREAM)
            left.close()
            splitter = FrameSplitter()
            got = [protocol.recv_frame(right, splitter)
                   for _ in FRAMES]
            assert got == FRAMES
            assert protocol.recv_frame(right, splitter) is None

    def test_eof_inside_a_frame_is_wire_error(self):
        left, right = socket.socketpair()
        with left, right:
            left.sendall(STREAM[:-5])
            left.close()
            splitter = FrameSplitter()
            for frame in FRAMES[:-1]:
                assert protocol.recv_frame(right, splitter) == frame
            with pytest.raises(WireError):
                protocol.recv_frame(right, splitter)
