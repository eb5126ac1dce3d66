"""The sans-IO frame splitter: the one parser of the wire layout.

However a byte stream is cut into reads, the frames that come out are
the frames that went in; a stream that stops inside a frame is a typed
:class:`WireError` at EOF, never a hang; and a length word past its
bound is refused the moment its four bytes are in, before a byte of
the body or sidecar it announces is accumulated.
"""

import socket

import pytest

from repro.service import protocol
from repro.service.protocol import (
    HEADER, MAX_FRAME_BYTES, MAX_SIDECAR_BYTES, SIDECAR_FLAG,
    FrameSplitter, WireError)

#: A burst with every frame shape in it: plain, sidecar, a batch with
#: one combined sidecar, an empty-args op, a response with a sidecar.
FRAMES = [
    (protocol.encode_body(protocol.request(
        1, "hello", {"user": "fuzz",
                     "version": protocol.PROTOCOL_VERSION})), b""),
    (protocol.encode_body(protocol.request(
        2, "write", {"oid": 12345, "data": {"bin": 64}})), b"\xab" * 64),
    (protocol.encode_body([
        protocol.request(3, "read", {"oid": 12345, "n": 64}),
        protocol.request(4, "ping"),
        protocol.request(5, "write", {"oid": 9, "data": {"bin": 8}}),
        protocol.request(6, "write", {"oid": 7, "data": {"bin": 3}}),
    ]), b"\x01" * 8 + b"\x02" * 3),
    (protocol.encode_body(protocol.request(7, "ping")), b""),
    (protocol.encode_body(protocol.ok_response(8, {"bin": 300})),
     bytes(range(256)) + b"x" * 44),
]
STREAM = b"".join(protocol.frame_from_body(body, sidecar or None)
                  for body, sidecar in FRAMES)
#: Stream offsets at which a frame ends (0 = before the first).
BOUNDARIES = [0]
for _body, _sidecar in FRAMES:
    BOUNDARIES.append(BOUNDARIES[-1] + len(
        protocol.frame_from_body(_body, _sidecar or None)))


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
            1, {"bin": len(sidecar)}))
        stream = protocol.frame_from_body(body, sidecar) + STREAM
        chunks = [stream[i:i + 4096]
                  for i in range(0, len(stream), 4096)]
        frames, _ = split(*chunks)
        assert frames == [(body, sidecar)] + FRAMES


class TestBoundsFromTheHeaderAlone:
    def test_oversize_body_length(self):
        for word in (MAX_FRAME_BYTES + 1,
                     SIDECAR_FLAG | (MAX_FRAME_BYTES + 1),
                     SIDECAR_FLAG | 0x7FFFFFFF):
            # Four bytes fed, not one of the announced body.
            with pytest.raises(WireError, match="frame length"):
                split(HEADER.pack(word))

    def test_oversize_sidecar_length(self):
        body = protocol.encode_body(protocol.request(1, "ping"))
        head = HEADER.pack(SIDECAR_FLAG | len(body)) + body
        # Complete up to the sidecar's length word, and no further.
        assert split(head)[0] == []
        with pytest.raises(WireError, match="sidecar length"):
            split(head + HEADER.pack(MAX_SIDECAR_BYTES + 1))

    def test_the_largest_legal_lengths_are_waited_for(self):
        splitter = FrameSplitter()
        assert list(splitter.feed(
            HEADER.pack(SIDECAR_FLAG | MAX_FRAME_BYTES))) == []
        with pytest.raises(WireError, match="truncated"):
            splitter.eof()

    def test_frames_ahead_of_a_bad_header_are_handed_out_first(self):
        splitter = FrameSplitter()
        got = []
        with pytest.raises(WireError):
            for frame in splitter.feed(
                    STREAM + HEADER.pack(MAX_FRAME_BYTES + 1)):
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
