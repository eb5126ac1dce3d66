"""A ``trace`` answer is a snapshot, sized, then streamed.

The daemon copies the rows a read picks out of the rings under their
locks, finds the answer's exact length with a sizing pass, writes the
frame header, then the rows a chunk (``READ_BYTES``) at a time.  The
bytes must be the ones the dict readers' answer encodes to — every
filter and limit, values no column holds, text a ``%`` format would
read — and the snapshot must be the rings as the read found them,
however long the peer takes to read it.
"""

import gc
import itertools
import socket
import threading
import time
import tracemalloc
import types
import zlib

import pytest

from repro.obs import Observability, trace_json
from repro.obs.ring import Rows, dumps
from repro.service import protocol
from repro.service.client import SyncTerpClient
from repro.service.conn import DRAIN_MARK, Conn
from repro.service.protocol import (
    MAX_FRAME_BYTES, READ_BYTES, WireError)
from repro.service.server import ServiceThread, TerpService

#: Text a ``%`` format would read, and text JSON escapes.
ODD = "100% %d %b %s ü ☃ \"q\" \\"
PMOS = ((7, "pmo-a"), (8, "pmo-b"), ("pmo-c", "pmo-c"), (10, "7"))
LIMITS = (None, 0, 1, 16384)
FILTERS = ({}, {"pmo": 7}, {"pmo": "pmo-a"}, {"pmo": "7"},
           {"pmo": "pmo-c"}, {"kind": "forced-detach"},
           {"kind": "attach", "pmo": 8}, {"kind": "no-such-kind"},
           {"name": "lib.psync"}, {"name": "no-such-span"})
EVENTS = [{"event": "forced-detach", "pmo": "pmo-a", "pmo_id": 7,
           "at_ns": 10 ** 12, "reason": ODD}]


def fill(obs: Observability) -> Observability:
    """Both rings: every kind of row, values that only the spill table
    keeps (a float clock, 2**63), and odd text in reasons and attrs —
    with one window left open."""
    tracer, audit = obs.tracer, obs.audit
    for n in range(120):
        tracer.record_since(("terpd.attach", "lib.psync")[n % 2],
                            10 ** 12 + n, ok=bool(n % 3), note=ODD)
    tracer.record_since("lib.psync", 1.5, flushed=2 ** 70)
    tracer.record_since("lib.psync", 2 ** 63, blob=[1, ODD])
    for n, (pmo_id, name) in zip(range(200), itertools.cycle(PMOS)):
        at = (10 ** 12 + n * 1000, 2.5, 2 ** 63)[n % 3]
        audit.record_attach(1000 + n % 5, pmo_id, name, at,
                            reason=ODD if n % 2 else "performed")
        audit.record_detach(1000 + n % 5, pmo_id, name, at + 1,
                            forced=bool(n % 4), reason=ODD)
    audit.record_sweep(10 ** 13, closed=2, duration_ns=2 ** 64)
    audit.record_restart(10 ** 13, downtime_ns=5, reason=ODD)
    audit.record_attach(2 ** 63, 8, "pmo-b", 10 ** 13)
    return obs


def answer_dict(obs, limit, pmo=None, kind=None, name=None, now_ns=None):
    """The same answer from the dict readers."""
    return {"spans": obs.tracer.recent(limit, name),
            "audit": obs.audit.events(pmo=pmo, kind=kind, limit=limit),
            "open_windows": obs.audit.open_windows(now_ns),
            "now_ns": now_ns}


def answered(rid, result, events=None):
    """The ``trace`` response to ``rid`` carrying ``result``."""
    return protocol.response(rid, "trace", result, events)


@pytest.fixture(scope="module")
def obs():
    return fill(Observability())


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("events", (None, EVENTS))
def test_a_streamed_frame_is_the_dict_answer_encoded(obs, limit, events):
    """Chunked at any size, the frame is the one the dict answer
    encodes to, header included."""
    for rid, where in enumerate(FILTERS):
        want = protocol.encode_frame(answered(
            rid, answer_dict(obs, limit, now_ns=10 ** 14, **where),
            events))
        answer = trace_json(obs.tracer, obs.audit, limit=limit,
                            now_ns=10 ** 14, **where)
        frame = protocol.frame_from_body(protocol.body_parts(
            answered(rid, answer, events)))
        assert isinstance(frame, protocol.StreamedFrame)
        assert len(frame) == len(want)
        for size in (1, 97, 4096, READ_BYTES):
            chunks = list(frame.chunks(size))
            assert max(map(len, chunks)) <= size
            assert b"".join(chunks) == want, (where, size)


def test_empty_rings_answer_empty_lists():
    empty = Observability()
    answer = trace_json(empty.tracer, empty.audit, limit=None)
    frame = protocol.frame_from_body(protocol.body_parts(
        answered(1, answer)))
    assert bytes(frame) == protocol.encode_frame(answered(
        1, {"spans": [], "audit": [], "open_windows": [],
            "now_ns": None}))
    assert body_of(bytes(frame)) == \
        b'[1,[{"spans":[],"audit":[],"open_windows":[],"now_ns":null}]]'


class Writer:
    """A connection's writes, kept."""

    def __init__(self) -> None:
        self.writes = []
        self.transport = types.SimpleNamespace(
            get_write_buffer_size=lambda: 0, is_closing=lambda: False)

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    def frames(self):
        splitter = protocol.FrameSplitter()
        frames = list(splitter.feed(b"".join(self.writes)))
        splitter.eof()
        self.writes.clear()
        return [protocol.frame_from_body(body) for body, _ in frames]


def body_of(frame):
    """A frame's body: what follows its head."""
    return frame[protocol.parse_head(frame)[0]:]


def serve(service, conn, *requests):
    """Run one burst through the daemon's serve loop, unstarted."""
    burst = service._serve_burst(conn, iter(
        [(protocol.encode_body(request), b"") for request in requests]))
    with pytest.raises(StopIteration):      # nothing it awaits blocks
        burst.send(None)
    conn.flush()


def test_the_serve_loop_streams_the_dict_answer():
    """Through the daemon's serve loop: every limit (not given is the
    row's default, 100) and filter, one frame each, its chunks at most
    ``READ_BYTES``; a response carrying events is joined for the
    replay cache, and a batch splices its traces whole."""
    service = TerpService(port=0, obs=fill(Observability()))
    service.now_ns = lambda: 10 ** 15      # each answer's clock, pinned
    obs, writer = service.obs, Writer()
    conn = Conn(writer, lambda frames: None)
    for rid, (limit, where) in enumerate(
            itertools.product(LIMITS, FILTERS), start=1):
        args = {"limit": limit, **where}
        spans = obs.tracer.recent(100 if limit is None else limit,
                                  where.get("name"))
        serve(service, conn, protocol.request(rid, "trace", args))
        assert max(map(len, writer.writes)) <= READ_BYTES
        want = answer_dict(obs, 100 if limit is None else limit,
                           now_ns=service.lib.clock_ns, **where)
        want["spans"] = spans           # before this read's own span
        assert writer.frames() == \
            [protocol.encode_frame(answered(rid, want))]

    serve(service, conn, protocol.request(
        900, "hello", {"version": protocol.PROTOCOL_VERSION, "user": "u"}))
    writer.frames()
    session = conn.session
    session.events.extend(EVENTS)
    spans = obs.tracer.recent(16384)
    serve(service, conn, protocol.request(901, "trace", {"limit": 16384}))
    want = answer_dict(obs, 16384, now_ns=service.lib.clock_ns)
    want["spans"] = spans
    (frame,) = writer.frames()
    assert frame == protocol.encode_frame(answered(901, want, EVENTS))
    assert session.replay_get(901)[0] == body_of(frame)

    spans = obs.tracer.recent(5, "lib.psync")
    serve(service, conn, [
        protocol.request(902, "trace", {"limit": 5, "name": "lib.psync"}),
        protocol.request(903, "trace", {"limit": 0})])
    want = answer_dict(obs, 5, name="lib.psync",
                       now_ns=service.lib.clock_ns)
    want["spans"] = spans
    empty = answer_dict(obs, 0, now_ns=service.lib.clock_ns)
    assert writer.frames() == [protocol.encode_frame(
        [answered(902, want), answered(903, empty)])]


def test_no_lock_is_held_while_rows_are_encoded_or_written(monkeypatch):
    """The rows are copied under ``lib.lock`` and the rings' locks;
    the sizing pass that follows, and every write, run with none of
    them held — for both halves of the answer."""
    service = TerpService(port=0, obs=fill(Observability()))
    rings = (service.obs.audit.ring, service.obs.tracer.ring)
    held, passes = [], []

    def note():
        held.append(service.lib.lock._is_owned()
                    or any(ring.lock.locked() for ring in rings))

    def watched(self, texts=Rows.texts):
        passes.append(0)
        for text in texts(self):
            note()
            passes[-1] += 1
            yield text
    monkeypatch.setattr(Rows, "texts", watched)
    writer = Writer()
    monkeypatch.setattr(writer, "write",
                        lambda data, write=writer.write: (note(),
                                                          write(data)))
    conn = Conn(writer, lambda frames: None)
    serve(service, conn, protocol.request(1, "trace", {"limit": 16384}))
    assert len(writer.frames()) == 1
    assert len(held) > 2 * 200 and not any(held)
    # Both halves, each sized and then written: >= 122 spans, > 400
    # events.
    passes.sort()
    assert len(passes) == 4 and passes[0] >= 122 and passes[2] > 400


def test_an_answer_over_the_frame_limit_is_refused_before_a_byte():
    """Sized first, an answer past ``MAX_FRAME_BYTES`` is today's typed
    refusal — the length it names is the whole frame body's — and no
    byte of it is written."""
    obs = Observability(audit_capacity=17)
    for n in range(17):
        obs.audit.record_fault("store.fsync", "eio", n,
                               detail="x" * (1 << 20))
    service = TerpService(port=0, obs=obs)
    writer = Writer()
    conn = Conn(writer, lambda frames: None)
    spans = obs.tracer.recent(16384)
    serve(service, conn, protocol.request(5, "trace", {"limit": 16384}))
    want = answer_dict(obs, 16384, now_ns=service.lib.clock_ns)
    want["spans"] = spans
    size = len(dumps(answered(5, want)))
    assert size > MAX_FRAME_BYTES
    assert writer.frames() == [protocol.frame_from_body(protocol.refusal(
        5, WireError(f"frame of {size} bytes exceeds "
                     f"{MAX_FRAME_BYTES}")))]


def _oversize_session():
    """A daemon whose every ``trace`` is past ``MAX_FRAME_BYTES``, a
    connection with a session on it, and two forced detaches pending
    for that session."""
    obs = Observability(audit_capacity=17)
    for n in range(17):
        obs.audit.record_fault("store.fsync", "eio", n,
                               detail="x" * (1 << 20))
    service = TerpService(port=0, obs=obs)
    writer = Writer()
    conn = Conn(writer, lambda frames: None)
    serve(service, conn, protocol.request(
        1, "hello", {"version": protocol.PROTOCOL_VERSION, "user": "u"}))
    writer.frames()
    pending = [dict(EVENTS[0], pmo_id=n) for n in (7, 8)]
    conn.session.events.extend(pending)
    return service, conn, writer, pending


def test_an_oversize_answer_refused_carries_the_pending_events():
    """The answer took the session's events before it was sized; its
    refusal must carry them, as any refusal carries what is pending —
    not leave them in a body that is never sent."""
    service, conn, writer, pending = _oversize_session()
    serve(service, conn, protocol.request(5, "trace", {"limit": 16384}))
    (frame,) = writer.frames()
    reply = protocol.decode_frame(body_of(frame))
    assert protocol.error_of(reply[1])[0] == "WireError"
    assert protocol.named_events(reply[2]) == pending
    serve(service, conn, protocol.request(6, "ping"))
    (frame,) = writer.frames()
    assert len(protocol.decode_frame(body_of(frame))) == 2     # none again
    assert not conn.session.events


def test_a_retried_oversize_answer_runs_again_and_loses_nothing():
    """The same rid again, as a client re-sends it after a drop: a
    refusal is never cached, so the retry runs afresh and is refused
    the same way — and the events, delivered once, are not lost in
    between: they rode on the first refusal or wait for the retry's."""
    service, conn, writer, pending = _oversize_session()
    got = []
    for _ in range(2):
        serve(service, conn, protocol.request(5, "trace",
                                              {"limit": 16384}))
        (frame,) = writer.frames()
        reply = protocol.decode_frame(body_of(frame))
        assert reply[0] == 5 and isinstance(reply[1], str)
        got += protocol.named_events(reply[2]) if len(reply) > 2 else []
    assert got == pending
    assert conn.session.replay_get(5) is None


def test_an_oversize_batch_refuses_the_item_that_overflows():
    """Two ~9 MB ``trace``s in one batch, events pending: each fits a
    frame, both do not.  The first is answered, carrying the events;
    the second, which would take the batch past ``MAX_FRAME_BYTES``,
    is refused as a lone oversize answer is — the connection is kept,
    not dropped with the events' one answer cached for a retry that
    would fail the same way — and sent again alone, it is answered."""
    obs = Observability(audit_capacity=9)
    for n in range(9):
        obs.audit.record_fault("store.fsync", "eio", n,
                               detail="x" * (1 << 20))
    service = TerpService(port=0, obs=obs)
    writer = Writer()
    conn = Conn(writer, lambda frames: None)
    serve(service, conn, protocol.request(
        1, "hello", {"version": protocol.PROTOCOL_VERSION, "user": "u"}))
    writer.frames()
    pending = [dict(EVENTS[0], pmo_id=n) for n in (7, 8)]
    conn.session.events.extend(pending)
    serve(service, conn, [protocol.request(rid, "trace", {"limit": 16384})
                          for rid in (5, 6)])
    (frame,) = writer.frames()
    first, second = protocol.decode_frame(body_of(frame))
    assert first[0] == 5 and isinstance(first[1], list)
    assert len(frame) > MAX_FRAME_BYTES // 2
    assert protocol.named_events(first[2]) == pending
    assert second[0] == 6 and len(second) == 2
    assert protocol.error_of(second[1])[0] == "WireError"
    serve(service, conn, protocol.request(6, "trace", {"limit": 16384}))
    (frame,) = writer.frames()
    reply = protocol.decode_frame(body_of(frame))
    assert reply[0] == 6 and isinstance(reply[1], list) and len(reply) == 2
    assert not conn.session.events


def test_a_frame_whose_text_changed_length_is_cut_not_desynced():
    """The header promised the sizing pass's length: parts that come
    out another length end the frame with a typed error — before the
    extra bytes leave, or after the short ones — never a frame the
    peer would read the next one's bytes into."""
    obs = Observability()
    attrs = {"note": [1]}
    obs.tracer.record_since("lib.psync", 1, **attrs)
    shared = obs.tracer.snapshot(1).cols[4][0][2]
    answer = trace_json(obs.tracer, obs.audit, limit=1)
    frame = protocol.frame_from_body(protocol.body_parts(
        answered(1, answer)))
    shared["note"].append(2)           # an unhashable attr, mutated
    with pytest.raises(WireError, match="came out longer"):
        list(frame.chunks())
    shared["note"][:] = []
    with pytest.raises(WireError, match="came out"):
        list(frame.chunks())


def test_a_slow_peer_gets_the_snapshot_while_the_daemon_serves_on():
    """A ~4 MB answer to a peer that stops reading: the transport backs
    up past ``DRAIN_MARK``, another connection's ``ping`` is answered
    meanwhile, the rings go on being appended to — and the answer, read
    slowly to its end, is the rings as the read found them, with the
    daemon's heap within the count bound the whole time."""
    # Both rings full: what is appended meanwhile overwrites, and the
    # heap measured is the read's, not the rings' growth.
    obs = Observability(trace_capacity=3000, audit_capacity=10000)
    tracer, audit = obs.tracer, obs.audit
    note, why = "n" * 300, "r" * 120
    for n in range(3000):
        tracer.record_since("fill", tracer.clock(), note=note)
    for n in range(5000):
        audit.record_attach(1001 + n % 4, 7, "slow", 10 ** 12 + n,
                            reason=why)
        audit.record_detach(1001 + n % 4, 7, "slow", 10 ** 12 + n + 1,
                            forced=True, reason=why)
    args = {"limit": 16384, "pmo": "slow", "name": "fill"}
    want = protocol.encode_frame(answered(7, {
        "spans": tracer.recent(16384, "fill"),
        "audit": audit.events(pmo="slow", limit=16384),
        "open_windows": [], "now_ns": None}))
    size, crc = len(want), zlib.crc32(want)
    del want
    assert size > 4 * DRAIN_MARK * 8

    stop, appended = threading.Event(), [0]

    def append():
        while not stop.is_set():
            tracer.record_since("fill", tracer.clock(), note=note)
            audit.record_attach(1001, 7, "slow", 2 * 10 ** 12, reason=why)
            audit.record_detach(1001, 7, "slow", 2 * 10 ** 12, reason=why)
            appended[0] += 1
            time.sleep(0.0002)

    service = TerpService(port=0, obs=obs, sweep_period_ns=60 * 10 ** 9)
    trace, span = service._handlers["trace"]

    def unclocked(conn, args):
        # The clock the answer is read at, left out: so the bytes
        # wanted can be made before the read.
        answer = trace(conn, args)
        answer.now_ns = b"null"
        return answer
    service._handlers["trace"] = (unclocked, span)
    with ServiceThread(service) as svc:
        peer = socket.socket()
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        peer.settimeout(10)
        peer.connect(("127.0.0.1", svc.bound_port))
        deadline = time.monotonic() + 10
        while not svc.front._writers:
            assert time.monotonic() < deadline, "never accepted"
            time.sleep(0.01)
        (writer,) = svc.front._writers
        # Small kernel buffers on both ends: the answer backs up into
        # the transport, whatever the host's TCP autotuning allows.
        writer.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 16384)
        appender = threading.Thread(target=append)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            peer.sendall(protocol.encode_frame(
                protocol.request(7, "trace", args)))
            got = peer.recv(4)
            appender.start()
            deadline = time.monotonic() + 10
            while writer.transport.get_write_buffer_size() <= DRAIN_MARK:
                assert time.monotonic() < deadline, "never backed up"
                time.sleep(0.01)
            with SyncTerpClient(port=svc.bound_port) as other:
                assert other.ping()["sessions"] >= 1
            assert writer.transport.get_write_buffer_size() > DRAIN_MARK
            crc_got, read = zlib.crc32(got), len(got)
            while read < size:
                data = peer.recv(4096)
                assert data, "the daemon closed mid-frame"
                crc_got, read = zlib.crc32(data, crc_got), read + len(data)
                time.sleep(0.0001)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            stop.set()
            tracemalloc.stop()
            if appender.is_alive():
                appender.join()
            peer.close()
    assert appended[0] > 100
    assert (read, crc_got) == (size, crc)
    assert peak <= 0.35 * size + READ_BYTES, \
        f"peak {peak} B for a {size} B frame"


def test_a_peer_that_leaves_mid_answer_ends_its_stream_quietly(caplog):
    """A peer asks for a ~2 MB answer and hangs up at once: the daemon
    stops making the answer at the first chunk after the transport saw
    the loss — it writes no more to the lost connection, which asyncio
    would log once per write — and serves on."""
    obs = Observability(trace_capacity=3000)
    for n in range(3000):
        obs.tracer.record_since("fill", obs.tracer.clock(), note="n" * 600)
    with ServiceThread(TerpService(port=0, obs=obs)) as svc:
        for _ in range(3):
            peer = socket.create_connection(("127.0.0.1", svc.bound_port))
            peer.sendall(protocol.encode_frame(
                protocol.request(1, "trace", {"limit": 16384})))
            peer.close()
        deadline = time.monotonic() + 10
        while svc.front._writers:
            assert time.monotonic() < deadline, "a stream never ended"
            time.sleep(0.01)
        with SyncTerpClient(port=svc.bound_port) as other:
            assert other.ping()["sessions"] == 1
    assert not [r for r in caplog.records if r.name == "asyncio"], \
        [r.getMessage() for r in caplog.records]
