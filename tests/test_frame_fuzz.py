"""One fuzz suite for both frame decoders.

The client wire (``protocol.FrameSplitter`` + ``decode_frame``) and the
replication link (``replication.wire.recv_msg``) share one frame
layout.  Each is fed the same streams — frames with arbitrary JSON
bodies and sidecars, replication rows with right and wrong values, and
raw bytes — cut at arbitrary points — and a body nested deeper than
the JSON parser goes.  A decoder may hand out a frame, ``None`` (more
to come, or a clean end), or its typed error; nothing else.  A
replication message it hands out fills its row.  Both read one head
(``protocol.parse_head``): fed every one-byte head and each varint
form's boundary values, they agree on the lengths or both refuse — an
oversize length before a byte of what it announces is awaited.
"""

import json
import socket

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.replication.wire import MESSAGES, ReplicationWireError, recv_msg
from repro.service.protocol import (
    MAX_FRAME_BYTES, MAX_SIDECAR_BYTES, FrameSplitter, WireError,
    decode_frame, pack_head)
from tests.replication.test_wire import raw_frame, row
from tests.service.test_frame_splitter import varint

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40)
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
#: A value of each row type — or, as often, any JSON value.
TYPED = {int: st.integers(-2**40, 2**40), bool: st.booleans(),
         str: st.text(max_size=8), list: st.lists(JSON, max_size=3),
         dict: st.dictionaries(st.text(max_size=4), JSON, max_size=3)}
ROWS = st.sampled_from(sorted(MESSAGES)).flatmap(
    lambda kind: st.tuples(*(TYPED[typ] | JSON
                             for _, typ in MESSAGES[kind])).map(
        lambda values: row(kind, *values)))
FRAMES = st.builds(raw_frame, ROWS | JSON, st.binary(max_size=48))
STREAMS = st.lists(FRAMES | st.binary(max_size=24), max_size=4).map(
    b"".join)
CUTS = st.lists(st.integers(0, 512), max_size=4)

FUZZ = settings(max_examples=100, deadline=None)
#: A body nested deeper than the JSON parser recurses: 100 000 ``[``.
DEEP = pack_head(100_000) + b"[" * 100_000


def pieces(stream, cuts):
    """``stream`` cut at ``cuts`` (those inside it)."""
    edges = sorted({0, len(stream), *(c for c in cuts if c < len(stream))})
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


@FUZZ
@given(STREAMS, CUTS)
@example(DEEP, [])
def test_the_client_decoder_gives_frames_or_a_wire_error(stream, cuts):
    splitter = FrameSplitter()
    try:
        for piece in pieces(stream, cuts):
            for body, _ in splitter.feed(piece):
                try:
                    decode_frame(body)
                except WireError:
                    pass
        assert splitter.next_frame() is None
        splitter.eof()
    except WireError:
        pass


@FUZZ
@given(STREAMS, CUTS)
@example(DEEP, [])
def test_the_replication_decoder_gives_rows_or_its_error(stream, cuts):
    a, b = socket.socketpair()
    try:
        for piece in pieces(stream, cuts):
            a.sendall(piece)
        a.close()
        while (got := recv_msg(b)) is not None:
            message, payload = got
            row = MESSAGES[message["t"]]
            assert list(message) == ["t", *(name for name, _ in row)]
            assert all(type(message[name]) is typ for name, typ in row)
            assert isinstance(payload, memoryview)
    except ReplicationWireError:
        pass
    finally:
        a.close(), b.close()


# -- the head, both ways -------------------------------------------------------

#: A body both decoders read as a message: a ``header`` row, padded
#: with JSON whitespace to any length from its own up.
PADDED = json.dumps(row("header", "p"), separators=(",", ":")).encode()


def client_reads(stream):
    """The client decoder on ``stream`` and then its end: the ``(body,
    sidecar)`` lengths of the frames it hands out, and how it stopped —
    ``"end"`` at a frame boundary, ``"cut"`` inside a frame, or
    ``"refused"``."""
    splitter, got = FrameSplitter(), []
    try:
        got += [(len(body), len(side)) for body, side
                in splitter.feed(stream)]
        splitter.eof()
    except WireError as exc:
        return got, "cut" if "truncated" in str(exc) else "refused"
    return got, "end"


def link_reads(stream):
    """The replication decoder on ``stream``, alike: the sidecar
    length of each message it hands out — the ``header`` row
    :func:`framed` pads, so a body read at any other length is
    undecodable, or leaves the next read misaligned."""
    a, b = socket.socketpair()
    got = []
    try:
        a.sendall(stream)
        a.close()
        while (message := recv_msg(b)) is not None:
            assert message[0] == {"t": "header", "pmo": "p"}
            got.append(len(message[1]))
    except ReplicationWireError as exc:
        return got, "cut" if "mid-frame" in str(exc) else "refused"
    finally:
        a.close(), b.close()
    return got, "end"


def framed(body_len, side_len):
    """A whole frame with a ``body_len``-byte body (a ``header`` row)
    and a ``side_len``-byte sidecar."""
    body = PADDED + b" " * (body_len - len(PADDED))
    return pack_head(body_len, side_len) + body + b"s" * side_len


def test_every_one_byte_head_reads_alike():
    """Alone, each byte is a head the decoders both wait on, or both
    refuse (an empty body, an 8-byte form); with the frame it
    announces behind it, both read that frame's lengths."""
    for byte in range(256):
        head = bytes([byte])
        alone = client_reads(head)
        assert alone == link_reads(head), byte
        assert alone[1] == ("refused" if byte < 2 or byte >> 6 == 3
                            else "cut"), byte
        body_len = (byte & 0x3F) >> 1
        if byte >> 6 == 0 and not byte & 1 and body_len >= len(PADDED):
            whole = framed(body_len, 0)
            assert whole[:1] == head
            assert client_reads(whole) == ([(body_len, 0)], "end")
            assert link_reads(whole) == ([0], "end"), byte


#: Each varint form's edges: 63/64 and 16 383/16 384 as the body's
#: varint (a body of 31 bytes and a sidecar is 63; 32 bytes is 64) and
#: as the sidecar's, and each bound and its neighbours.
BODIES = [31, 32, 8191, 8192, MAX_FRAME_BYTES - 1, MAX_FRAME_BYTES,
          MAX_FRAME_BYTES + 1]
SIDES = [0, 1, 63, 64, 16383, 16384, MAX_SIDECAR_BYTES - 1,
         MAX_SIDECAR_BYTES, MAX_SIDECAR_BYTES + 1]


def test_each_varint_forms_edges_read_alike():
    """The head alone: both wait for what it announces, or both refuse
    it — an oversize sidecar too, though no byte of the body it
    precedes was sent.  A whole frame, where it is small: both read
    its lengths."""
    for body_len in BODIES:
        for side_len in SIDES:
            head = varint(body_len << 1 | bool(side_len)) + \
                (varint(side_len) if side_len else b"")
            oversize = body_len > MAX_FRAME_BYTES or \
                side_len > MAX_SIDECAR_BYTES
            alone = client_reads(head)
            assert alone == link_reads(head) == \
                ([], "refused" if oversize else "cut"), (body_len, side_len)
            if body_len + side_len <= 32768:
                whole = framed(body_len, side_len)
                assert client_reads(whole) == \
                    ([(body_len, side_len)], "end")
                assert link_reads(whole) == ([side_len], "end"), \
                    (body_len, side_len)

