"""One fuzz suite for both frame decoders.

The client wire (``protocol.FrameSplitter`` + ``decode_frame``) and the
replication link (``replication.wire.recv_msg``) share one frame
layout.  Each is fed the same streams — frames with arbitrary JSON
bodies and sidecars, replication rows with right and wrong values, and
raw bytes — cut at arbitrary points.  A decoder may hand out a frame,
``None`` (more to come, or a clean end), or its typed error; nothing
else.  A replication message it hands out fills its row.
"""

import socket

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication.wire import MESSAGES, ReplicationWireError, recv_msg
from repro.service.protocol import FrameSplitter, WireError, decode_frame
from tests.replication.test_wire import raw_frame

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
        lambda values: [kind, *values]))
FRAMES = st.builds(raw_frame, ROWS | JSON, st.binary(max_size=48))
STREAMS = st.lists(FRAMES | st.binary(max_size=24), max_size=4).map(
    b"".join)
CUTS = st.lists(st.integers(0, 512), max_size=4)

FUZZ = settings(max_examples=100, deadline=None)


def pieces(stream, cuts):
    """``stream`` cut at ``cuts`` (those inside it)."""
    edges = sorted({0, len(stream), *(c for c in cuts if c < len(stream))})
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


@FUZZ
@given(STREAMS, CUTS)
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
