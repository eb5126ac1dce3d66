"""The op table is the only statement of the op set.

Conformance: every row of :mod:`repro.service.ops` has a server
handler, a routing rule the router honours, and the same typed method
on both clients — and nothing carries an op the table does not.  The
row is the wire schema: a typed call's keyword arguments reach the
handler as the same args dict whatever the frame spells.
Golden: the sans-IO client core, driven through one scripted 12-op
tenant cycle, emits exactly the positional frames recorded here — each
shorter than the frame the same call made on wire revision 5, whose
head was a four-byte length word — and a daemon answers that cycle
with exactly the replies recorded here, whose closed vocabularies are
indices and whose binary slot is its byte count.  Count
budget: every row's request and result, every event kind's event and
one ``mem_cycle`` cycle cost exactly the bytes recorded here, and every
fixed reason the daemon gives is in ``REASONS``.  Round trip:
every row's result, every event and a batch of results and refusals
reach a caller as the dicts the daemon's handlers returned.
"""

import ast
import asyncio
import inspect
import pathlib
import types

import pytest

from repro.cluster.router import TerpRouter
from repro.core import record
from repro.core.errors import PmoError
from repro.core.units import MIB
from repro.pmo.object_id import OFFSET_BITS, Oid
from repro.service import ops, protocol, reactor, retry
from repro.service.client import (
    RECV, SEND, ClientCore, RemoteError, SyncTerpClient, TerpClient)
from repro.service.ops import FANOUT, NAME, OID, OPS, SESSION
from repro.service.conn import Conn, admit
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import ServiceThread, TerpService
from repro.service.sessions import Session, SessionManager
from tests.service.rawwire import RawWire

TYPED = {op.method for op in OPS.values() if op.method is not None}


class TestConformance:
    def test_rows_are_well_formed(self):
        for name, op in OPS.items():
            assert op.name == name
            assert op.route in (NAME, OID, FANOUT, SESSION)
            params = [p for p, _ in op.params]
            if op.route in (NAME, OID) and op.method is not None:
                assert params[0] == op.route, name
            assert op.bin_arg is None or op.bin_arg in params

    def test_every_row_has_exactly_one_server_handler(self):
        service = TerpService(port=0)
        assert set(service._handlers) == set(OPS)
        declared = {attr[len("_op_"):] for attr in vars(TerpService)
                    if attr.startswith("_op_")}
        assert declared == set(OPS)
        for name, (handler, span) in service._handlers.items():
            assert callable(handler) and span == f"terpd.{name}"

    def test_router_routes_every_row_by_its_key(self):
        router = TerpRouter(shard_addrs=[("127.0.0.1", 1),
                                         ("127.0.0.1", 2),
                                         ("127.0.0.1", 3)])
        conn = Conn(writer=None, note_flush=None)   # never written to
        home = router._home_shard(conn)
        for name, op in OPS.items():
            if op.route == NAME:
                for pmo in ("a", "b", "pmo-17", "zz"):
                    assert router._route(op, {"name": pmo}, conn) == \
                        router.ring.owner(pmo), name
            elif op.route == OID:
                for pool_id in (1, 2, 3, 4, 11):
                    oid = Oid(pool_id, 64).pack()
                    assert oid >> OFFSET_BITS == pool_id
                    assert router._route(op, {"oid": oid}, conn) == \
                        (pool_id - 1) % 3, name
            elif op.route == FANOUT:
                assert callable(getattr(router, f"_fanout_{name}")), name
            else:
                assert callable(getattr(router, f"_op_{name}")), name
            # Unroutable args stay session-sticky, whatever the key.
            assert router._route(op, {}, conn) == home
        fanouts = {attr[len("_fanout_"):] for attr in vars(TerpRouter)
                   if attr.startswith("_fanout_")}
        assert fanouts == {n for n, op in OPS.items()
                           if op.route == FANOUT}
        assert OPS["repl_status"].route == FANOUT

    def test_both_clients_expose_the_same_typed_methods(self):
        assert TYPED >= {"close_pmo", "read_u64", "write_u64",
                         "tx_begin", "tx_abort", "ping", "repl_status"}
        assert "hello" not in TYPED and "close" not in TYPED
        for method in TYPED:
            # One generated body on the core; neither transport
            # defines (or overrides) a per-op method of its own.
            shared = getattr(ClientCore, method)
            assert getattr(SyncTerpClient, method) is shared
            assert getattr(TerpClient, method) is shared
        for cls in (SyncTerpClient, TerpClient):
            own = {attr for attr in vars(cls) if not attr.startswith("_")}
            assert own == {"close"}, cls

    def test_typed_method_signatures(self):
        client = SyncTerpClient(port=1)
        with pytest.raises(TypeError):
            client.create("only-a-name")            # size is required
        with pytest.raises(TypeError):
            client.attach("p", "rw", "extra")
        with pytest.raises(TypeError):
            client.psync(nome="typo")

    def test_untyped_calls_refuse_an_undeclared_argument(self):
        # Refused before anything is sent: this client never connected,
        # so a frame that got as far as the wire would be
        # ConnectionLost.
        client = SyncTerpClient(port=1)
        typo = ("attach", {"name": "p", "acess": "r"})
        for send in (lambda: client.call(typo[0], **typo[1]),
                     lambda: client.pipeline([("ping", {}), typo]),
                     lambda: client.batch([("ping", {}), typo])):
            with pytest.raises(TypeError, match="acess"):
                send()

    def test_read_only_set_is_the_tables_projection(self):
        assert retry.READ_ONLY_OPS is ops.READ_ONLY_OPS
        assert ops.READ_ONLY_OPS == {
            name for name, op in OPS.items() if op.readonly}
        # Observing ops only: nothing read-only mutates or binds.
        assert not ops.READ_ONLY_OPS & {
            "hello", "goodbye", "write", "write_u64", "psync",
            "create", "destroy", "attach", "detach", "pmalloc", "pfree"}

    def test_sessionless_is_the_tables_projection(self, terpd):
        # Before hello, exactly the sessionless rows get past the
        # session check (they may fail later, on their arguments).
        with RawWire(terpd.port) as wire:
            for rid, (name, op) in enumerate(OPS.items(), start=1):
                if name == "hello":
                    continue            # would bind a session
                response, _ = wire.exchange(rid, name)
                refused = not response.ok and \
                    "requires a session" in response.error[1]
                assert refused == (not op.sessionless), name


# -- golden frames ------------------------------------------------------------

GOLDEN_OID = Oid(3, 4096)
GOLDEN_PAYLOAD = bytes(range(48))
#: What the core sends for the cycle below: 12 ops in 11 frames (ops
#: 8+9 share a batch frame), head + JSON body (+ sidecar for the
#: write) — 293 bytes.  Each op is its row's index, a trailing row
#: default (``create``'s ``mode``) is left off, and the write's data
#: slot holds its byte count, ``48``.
GOLDEN_FRAMES = [bytes.fromhex(frame) for frame in (
    "2c5b312c302c362c22676f6c64656e222c3235302e305d",
    "285b322c372c22676f6c64222c343139343330345d",
    "1a5b332c31312c22676f6c64225d",
    "205b342c31332c22676f6c64222c36345d",
    "33305b352c31392c3834343432343933303133363036342c34385d000102030405"
    "060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212223242526"
    "2728292a2b2c2d2e2f",
    "305b362c32312c3834343432343933303133363036342c375d",
    "1a5b372c31342c22676f6c64225d",
    "40645b5b382c31382c3834343432343933303133363036342c34385d2c5b392c32"
    "302c3834343432343933303133363036345d5d",
    "3a5b31302c342c352c6e756c6c2c22666f726365642d646574616368225d",
    "1c5b31312c31322c22676f6c64225d",
    "0c5b31322c315d",
)]
#: The same cycle's frame lengths on wire revision 5, whose head was a
#: four-byte length word (and a second one for the sidecar) and whose
#: write spelled its count ``{"bin":48}``: 336 bytes.
LENGTH_WORD_FRAME_LENGTHS = [26, 24, 17, 20, 89, 28, 17, 54, 33, 18, 10]
#: ... on wire revision 4, whose requests named their op and sent
#: every default the typed method filled in: 422 bytes.
NAMED_OP_FRAME_LENGTHS = [32, 35, 28, 27, 94, 37, 22, 66, 39, 24, 18]
#: ... and on wire revision 2, whose JSON objects spelled ``"id"``,
#: ``"op"``, ``"args"`` and every argument name: 801 bytes.
OBJECT_FRAME_LENGTHS = [83, 75, 63, 60, 126, 70, 48, 120, 68, 50, 38]


#: A result dict per row, as a handler returns it.
RESULTS = {
    "hello": {"session": 1, "entity": (1 << 20) + 1,
              "version": PROTOCOL_VERSION, "ew_budget_us": 250.0,
              "token": "ab" * 16, "resumed": False},
    "goodbye": {"released": 1},
    "ping": {"now_ns": 10 ** 9, "sessions": 2},
    "metrics": {"global": {"requests": 3}, "runtime": {"calls": 1}},
    "trace": {"spans": [], "audit": [], "open_windows": [],
              "now_ns": 10 ** 9},
    "prometheus": {"text": "terpd_up 1\n"},
    "repl_status": {"enabled": False},
    "create": {"pmo": 3, "name": "gold", "size": 4 * MIB},
    "open": {"pmo": 3, "name": "gold", "size": 4 * MIB},
    "close": {"closed": 3},
    "destroy": {"destroyed": "gold"},
    "attach": {"outcome": "performed", "reason": "case 1: first attach"},
    "detach": {"outcome": "performed", "reason": "case 5: full detach"},
    "pmalloc": {"oid": GOLDEN_OID.pack()},
    "psync": {"flushed": 1},
    "tx_begin": {"tx": 1},
    "tx_abort": {"aborted": True},
    "pfree": {"freed": True},
    "read": {"data": GOLDEN_PAYLOAD},
    "write": {"n": 48},
    "read_u64": {"value": 7},
    "write_u64": {"written": True},
}


def _answer(request):
    rid, op = protocol.head(request)
    result = dict(RESULTS[op])
    if op == "read":
        result["data"] = len(GOLDEN_PAYLOAD)
    return protocol.response(rid, op, result), \
        GOLDEN_PAYLOAD if op == "read" else b""


class ScriptedClient(ClientCore):
    """A third transport, for the test only: no socket, a canned
    server.  The core cannot tell — which is the point of sans-IO."""

    def __init__(self):
        super().__init__(user="golden", ew_budget_us=250.0, retry=None,
                         breaker=None)
        #: every SEND step's bytes, the frames they held, the replies.
        self.sends, self.sent, self.inbox = [], [], []
        self._splitter = protocol.FrameSplitter()

    def _run(self, steps):
        try:
            step = next(steps)
            while True:
                value = None
                if step[0] == SEND:
                    self.sends.append(step[1])
                    # A SEND may carry a burst: the server sees frames.
                    for body, sidecar in self._splitter.feed(step[1]):
                        self.sent.append(protocol.frame_from_body(
                            body, sidecar or None))
                        self.inbox.append(self._serve(body, sidecar))
                elif step[0] == RECV:
                    value = self.inbox.pop(0)
                step = steps.send(value)
        except StopIteration as stop:
            return stop.value

    @staticmethod
    def _serve(body, sidecar):
        payload = protocol.decode_frame(body)
        if not protocol.is_batch(payload):
            response, sidecar = _answer(payload)
            return protocol.encode_body(response), sidecar
        answers = [_answer(one) for one in payload]
        return (protocol.encode_body([r for r, _ in answers]),
                b"".join(s for _, s in answers))


def test_core_emits_the_parent_commits_request_frames():
    client = ScriptedClient()
    assert client.connect() is client                           # 1
    assert client.session_id == 1 and \
        client.protocol_version == PROTOCOL_VERSION
    client.create("gold", 4 * MIB)                              # 2
    client.attach("gold")                                       # 3
    oid = client.pmalloc("gold", 64)                            # 4
    assert oid == GOLDEN_OID
    assert client.pipeline([
        ("write", {"oid": oid.pack(), "data": GOLDEN_PAYLOAD}),  # 5
        ("write_u64", {"oid": oid.pack(), "value": 7}),          # 6
    ]) == [{"n": 48}, {"written": True}]
    assert client.psync("gold") == 1                            # 7
    assert client.batch([
        ("read", {"oid": oid.pack(), "n": 48}),                  # 8
        ("read_u64", {"oid": oid.pack()}),                       # 9
    ]) == [{"data": GOLDEN_PAYLOAD}, {"value": 7}]
    client.trace(limit=5, kind="forced-detach")                 # 10
    client.detach("gold")                                       # 11
    client.goodbye()                                            # 12
    assert client.sent == GOLDEN_FRAMES
    # A varint head: every frame shorter than revision 5's, which were
    # all shorter than revision 4's (indices, not names), which were
    # all shorter than revision 2's.
    for history in (LENGTH_WORD_FRAME_LENGTHS, NAMED_OP_FRAME_LENGTHS,
                    OBJECT_FRAME_LENGTHS):
        assert all(len(frame) < before for frame, before
                   in zip(GOLDEN_FRAMES, history))
    assert sum(map(len, GOLDEN_FRAMES)) == 293 < \
        sum(LENGTH_WORD_FRAME_LENGTHS) == 336 < \
        sum(NAMED_OP_FRAME_LENGTHS) == 422
    # Same bytes, fewer writes: the pipeline's two frames were one SEND.
    assert b"".join(client.sends) == b"".join(GOLDEN_FRAMES)
    assert len(client.sends) == len(GOLDEN_FRAMES) - 1


class ServedClient(ScriptedClient):
    """The scripted transport answered by a daemon's own serve loop —
    unstarted (no socket, no sweeper) and its clock pinned, so the
    replies are the same bytes every run."""

    def __init__(self, service):
        super().__init__()
        self.service = service
        service.now_ns = lambda: 10 ** 9
        #: every reply frame, as the daemon wrote it.
        self.replies = []
        self.writes = []
        self.conn = Conn(types.SimpleNamespace(
            write=self.writes.append, buffered=lambda: 0, closing=False),
            lambda frames: None)

    def _serve(self, body, sidecar):
        serve = self.service._serve_burst(self.conn,
                                          iter([(body, sidecar)]))
        with pytest.raises(StopIteration):   # nothing it awaits blocks
            serve.send(None)
        self.conn.flush()
        self.replies.append(b"".join(self.writes))
        self.writes.clear()
        (reply,) = protocol.FrameSplitter().feed(self.replies[-1])
        return reply


#: What a daemon answers the cycle above with (its clock pinned, obs
#: off): 12 results in 11 frames, the batch's two in one — 307 bytes.
#: ``attach``'s and ``detach``'s outcome and reason are their indices;
#: the read's slot holds its byte count, ``48``.
GOLDEN_REPLIES = [bytes.fromhex(frame) for frame in (
    "40805b312c5b362c312c313034383537372c3235302e302c223862623666313461"
    "373134653966646334396636303534313838313861303062222c66616c73655d5d",
    "2c5b322c5b312c22676f6c64222c343139343330345d5d",
    "125b332c5b302c305d5d",
    "2a5b342c5b3238313437343937363937323838305d5d",
    "105b352c5b34385d5d",
    "145b362c5b747275655d5d",
    "0e5b372c5b305d5d",
    "25305b5b382c5b34385d5d2c5b392c5b375d5d5d070000000000000008090a0b0c"
    "0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d"
    "2e2f",
    "40885b31302c5b7b227370616e73223a5b5d2c226175646974223a5b5d2c226f70"
    "656e5f77696e646f7773223a5b5d2c226e6f775f6e73223a313030303030303030"
    "307d5d5d",
    "145b31312c5b312c325d5d",
    "105b31322c5b305d5d",
)]
#: The same daemon's replies on wire revision 5, framed by four-byte
#: length words, the read's count spelled ``{"bin":48}``: 349 bytes.
LENGTH_WORD_REPLY_LENGTHS = [68, 26, 13, 25, 12, 14, 11, 82, 72, 14, 12]
#: ... on wire revision 4, whose outcomes and reasons were their
#: texts: 410 bytes.
TEXT_REPLY_LENGTHS = [68, 26, 44, 25, 12, 14, 11, 82, 72, 44, 12]
#: ... and on wire revision 3, whose results were objects naming every
#: field (and ``attach``'s spelled its base VA): 581 bytes.
#: ``trace`` (10) alone grew: its answer now carries the clock it was
#: read at.
NAMED_REPLY_LENGTHS = [130, 46, 89, 31, 16, 24, 21, 88, 50, 63, 23]


def test_a_daemon_answers_the_cycle_with_the_recorded_replies():
    client = ServedClient(TerpService(port=0, obs_enabled=False))
    client.connect()
    client.create("gold", 4 * MIB)
    assert client.attach("gold") == RESULTS["attach"]
    oid = client.pmalloc("gold", 64)
    assert client.pipeline([
        ("write", {"oid": oid.pack(), "data": GOLDEN_PAYLOAD}),
        ("write_u64", {"oid": oid.pack(), "value": 7}),
    ]) == [{"n": 48}, {"written": True}]
    assert client.psync("gold") == 0
    assert client.batch([
        ("read", {"oid": oid.pack(), "n": 48}),
        ("read_u64", {"oid": oid.pack()}),
    ]) == [{"data": bytes([7]) + bytes(7) + GOLDEN_PAYLOAD[8:]},
           {"value": 7}]
    assert client.trace(limit=5, kind="forced-detach") == {
        "spans": [], "audit": [], "open_windows": [], "now_ns": 10 ** 9}
    client.detach("gold")
    client.goodbye()
    assert client.replies == GOLDEN_REPLIES
    # A varint head: every reply shorter than revision 5's, and so
    # than revision 4's, whose closed vocabularies were texts.
    for history in (LENGTH_WORD_REPLY_LENGTHS, TEXT_REPLY_LENGTHS):
        assert all(len(reply) < before for reply, before
                   in zip(GOLDEN_REPLIES, history))
    # ... and all but trace's than revision 3's, which named fields.
    assert [len(reply) < before for reply, before in zip(
        GOLDEN_REPLIES, NAMED_REPLY_LENGTHS)] == [True] * 8 + [False] + \
        [True] * 2
    assert sum(map(len, GOLDEN_REPLIES)) == 307 < \
        sum(LENGTH_WORD_REPLY_LENGTHS) == 349 < \
        sum(TEXT_REPLY_LENGTHS) == 410 < sum(NAMED_REPLY_LENGTHS) == 581


# -- the dict a handler returns is the dict a caller gets ---------------------

#: Arguments every row's request is admitted with.
CALL_ARGS = {
    "goodbye": {}, "ping": {}, "metrics": {}, "trace": {},
    "prometheus": {}, "repl_status": {},
    "create": {"name": "gold", "size": 64}, "open": {"name": "gold"},
    "close": {"name": "gold"}, "destroy": {"name": "gold"},
    "attach": {"name": "gold"}, "detach": {"name": "gold"},
    "pmalloc": {"name": "gold", "size": 64}, "psync": {"name": "gold"},
    "tx_begin": {"name": "gold"}, "tx_abort": {"name": "gold"},
    "pfree": {"oid": GOLDEN_OID.pack()},
    "read": {"oid": GOLDEN_OID.pack(), "n": 48},
    "write": {"oid": GOLDEN_OID.pack(), "data": GOLDEN_PAYLOAD},
    "read_u64": {"oid": GOLDEN_OID.pack()},
    "write_u64": {"oid": GOLDEN_OID.pack(), "value": 7},
}


def _canned_daemon():
    """A daemon whose handlers (``hello`` aside, which binds the
    session) return :data:`RESULTS`' dict for their row — and refuse
    the null oid."""
    service = TerpService(port=0)

    def canned(name):
        def handler(conn, args):
            if args.get("oid") == 0:
                raise PmoError("no such object")
            return dict(RESULTS[name])
        return handler

    for name, (_, span) in service._handlers.items():
        if name != "hello":
            service._handlers[name] = (canned(name), span)
    return service


def _forced(n):
    return {"event": "forced-detach", "pmo": f"lost-{n}", "pmo_id": n,
            "at_ns": 10 ** 9 + n, "reason": "session EW budget"}


def test_every_rows_result_and_event_reach_the_caller_as_returned():
    client = ServedClient(_canned_daemon())
    client.connect()
    session = client.conn.session
    for n, name in enumerate(sorted(CALL_ARGS)):
        # An event rides on every other reply.
        if n % 2:
            session.events.append(_forced(n))
        assert client.call(name, **CALL_ARGS[name]) == RESULTS[name], name
        assert client.events == ([_forced(n)] if n % 2 else []), name
        client.events.clear()
    assert set(CALL_ARGS) | {"hello"} == set(OPS)


def test_a_batch_of_results_and_refusals_reaches_the_caller_in_order():
    client = ServedClient(_canned_daemon())
    client.connect()
    client.conn.session.events.extend([_forced(1), _forced(2)])
    items = [(20, "write", CALL_ARGS["write"]),
             (21, "read_u64", {"oid": 0}),              # refused
             (22, "read", CALL_ARGS["read"]),
             (23, "wirte", {}),                         # refused
             (24, "metrics", {})]
    outcomes = []
    client._run(client._batch_steps(items, outcomes))
    assert outcomes[0] == RESULTS["write"]
    assert (outcomes[1].kind, outcomes[1].remote_message) == \
        ("PmoError", "no such object")
    assert outcomes[2] == RESULTS["read"]
    assert outcomes[3].kind == "WireError"
    assert outcomes[4] == RESULTS["metrics"]
    # The events rode on the first reply, once.
    assert client.events == [_forced(1), _forced(2)]
    (body, _), = protocol.FrameSplitter().feed(client.replies[-1])
    batch = protocol.decode_frame(body)
    assert [type(reply[1]).__name__ for reply in batch] == \
        ["list", "str", "list", "str", "list"]


def test_pipeline_hands_the_burst_over_as_one_send():
    client = ScriptedClient()
    client.connect()
    del client.sends[:], client.sent[:]
    burst = [("write", {"oid": GOLDEN_OID.pack(),
                        "data": bytes([i]) * (i + 1)}) for i in range(8)]
    assert client.pipeline(burst) == [{"n": 48}] * 8
    # One step for the transport to carry out — one sendall, one
    # segment — holding exactly the eight frames a send per request
    # would have put on the wire, in order.
    assert len(client.sends) == 1
    assert client.sends[0] == b"".join(
        protocol.encode_frame(
            protocol.request(2 + i, "write", {
                "oid": GOLDEN_OID.pack(), "data": i + 1}),
            bytes([i]) * (i + 1))
        for i in range(8))
    assert len(client.sent) == 8


# -- the row is the schema ------------------------------------------------------

_OID = GOLDEN_OID.pack()
#: A typed call per row — and the variants that exercise a default, an
#: interior ``null`` and the binary slot — with the args dict its
#: handler received on wire revision 2, object frames and all.
HANDLER_ARGS = [
    ("goodbye", (), {}, {}),
    ("ping", (), {}, {}),
    ("metrics", (), {}, {}),
    ("metrics", (), {"raw": True}, {"raw": True}),
    ("trace", (), {}, {"limit": 100}),
    ("trace", (), {"limit": 5, "kind": "forced-detach"},
     {"limit": 5, "kind": "forced-detach"}),
    ("trace", (), {"pmo": 7}, {"limit": 100, "pmo": 7}),
    ("prometheus", (), {}, {}),
    ("repl_status", (), {}, {}),
    ("create", ("gold", 4 * MIB), {},
     {"name": "gold", "size": 4 * MIB, "mode": 0o600}),
    ("create", ("gold", 64), {"mode": 0o666},
     {"name": "gold", "size": 64, "mode": 0o666}),
    ("open", ("gold",), {}, {"name": "gold", "access": "rw"}),
    ("close_pmo", ("gold",), {}, {"name": "gold"}),
    ("destroy", ("gold",), {}, {"name": "gold"}),
    ("attach", ("gold",), {}, {"name": "gold", "access": "rw"}),
    ("attach", ("gold",), {"access": "r"}, {"name": "gold", "access": "r"}),
    ("detach", ("gold",), {}, {"name": "gold"}),
    ("pmalloc", ("gold", 64), {}, {"name": "gold", "size": 64}),
    ("psync", ("gold",), {}, {"name": "gold"}),
    ("tx_begin", ("gold",), {}, {"name": "gold"}),
    ("tx_abort", ("gold",), {}, {"name": "gold"}),
    ("pfree", (GOLDEN_OID,), {}, {"oid": _OID}),
    ("read", (GOLDEN_OID, 48), {}, {"oid": _OID, "n": 48}),
    ("write", (GOLDEN_OID, GOLDEN_PAYLOAD), {},
     {"oid": _OID, "data": GOLDEN_PAYLOAD}),
    ("read_u64", (GOLDEN_OID,), {}, {"oid": _OID}),
    ("write_u64", (GOLDEN_OID, 7), {}, {"oid": _OID, "value": 7}),
]


def _admitted(frame):
    """``(op, args)`` as the front door hands one sent frame to its
    handler."""
    (body, sidecar), = protocol.FrameSplitter().feed(frame)
    spec, args = admit(protocol.decode_frame(body),
                       protocol.BinReader(sidecar), has_session=True)
    return spec.name, args


def test_every_row_hands_its_handler_the_same_args():
    client = ScriptedClient()
    client.connect()
    assert _admitted(client.sent[-1]) == ("hello", {
        "version": PROTOCOL_VERSION, "user": "golden",
        "ew_budget_us": 250.0})
    # A resume without a budget: the budget's slot travels as null.
    client._budget = None
    client._run(client._hello_steps({"resume": 1, "token": "ab" * 16}))
    assert b",null," in client.sent[-1]
    assert _admitted(client.sent[-1]) == ("hello", {
        "version": PROTOCOL_VERSION, "user": "golden", "resume": 1,
        "token": "ab" * 16})
    covered = {"hello"}
    for method, args, kwargs, expected in HANDLER_ARGS:
        getattr(client, method)(*args, **kwargs)
        name, got = _admitted(client.sent[-1])
        assert got == expected, (method, kwargs)
        covered.add(name)
    assert covered == set(OPS)


def test_both_front_doors_read_trace_args_by_the_row(monkeypatch):
    """``trace``'s ``limit`` is read in one place: with the row's
    default changed, a daemon and a router given no ``limit`` both
    answer that many spans, and both refuse a negative one."""
    row = OPS["trace"]
    monkeypatch.setitem(OPS, "trace", record.replace(row, params=tuple(
        (name, 3 if name == "limit" else default)
        for name, default in row.params)))
    conn = Conn(writer=None, note_flush=None)
    service = TerpService(port=0)
    for n in range(10):
        service.obs.tracer.record_since("terpd.ping", n)
    trace = service._handlers["trace"][0]
    assert len(list(trace(conn, {}).spans)) == 3
    router = TerpRouter(shard_addrs=[("127.0.0.1", 1)])

    async def poll(conn, spec, args):
        spans = [{"end_ns": n} for n in range(10)]
        return [(0, {"spans": spans, "audit": [], "now_ns": 0})], []
    monkeypatch.setattr(router, "_poll", poll)
    merged, _ = reactor.run(router._fanout_trace(conn, OPS["trace"], {}))
    assert len(merged["spans"]) == 3
    for answer in (lambda: trace(conn, {"limit": -1}),
                   lambda: reactor.run(router._fanout_trace(
                       conn, OPS["trace"], {"limit": -1}))):
        with pytest.raises(ValueError, match="negative"):
            answer()


# -- count budget: what each row costs on the wire -----------------------------

#: Every row's request body as the core sends it (rid 1, the row's
#: :data:`CALL_ARGS`; ``hello`` as a fresh session says it) and its
#: result body as a daemon lays :data:`RESULTS` out.
ROW_BYTES = {
    "hello": ('[1,0,6,"golden"]',
              '[1,[6,1,1048577,250.0,"abababababababababababababababab",'
              'false]]'),
    "goodbye": ('[1,1]', '[1,[1]]'),
    "ping": ('[1,2]', '[1,[1000000000,2]]'),
    "metrics": ('[1,3]',
                '[1,[{"global":{"requests":3},"runtime":{"calls":1}}]]'),
    "trace": ('[1,4]', '[1,[{"spans":[],"audit":[],"open_windows":[],'
                       '"now_ns":1000000000}]]'),
    "prometheus": ('[1,5]', '[1,["terpd_up 1\\n"]]'),
    "repl_status": ('[1,6]', '[1,[{"enabled":false}]]'),
    "create": ('[1,7,"gold",64]', '[1,[3,"gold",4194304]]'),
    "open": ('[1,8,"gold"]', '[1,[3,"gold",4194304]]'),
    "close": ('[1,9,"gold"]', '[1,[3]]'),
    "destroy": ('[1,10,"gold"]', '[1,["gold"]]'),
    "attach": ('[1,11,"gold"]', '[1,[0,0]]'),
    "detach": ('[1,12,"gold"]', '[1,[0,1]]'),
    "pmalloc": ('[1,13,"gold",64]', '[1,[844424930136064]]'),
    "psync": ('[1,14,"gold"]', '[1,[1]]'),
    "tx_begin": ('[1,15,"gold"]', '[1,[1]]'),
    "tx_abort": ('[1,16,"gold"]', '[1,[true]]'),
    "pfree": ('[1,17,844424930136064]', '[1,[true]]'),
    "read": ('[1,18,844424930136064,48]', '[1,[48]]'),
    "write": ('[1,19,844424930136064,48]', '[1,[48]]'),
    "read_u64": ('[1,20,844424930136064]', '[1,[7]]'),
    "write_u64": ('[1,21,844424930136064,7]', '[1,[true]]'),
}
#: The bodies revision 5 spelled longer: a binary slot held
#: ``{"bin":48}``.  Every other row's body is the same length.
LENGTH_WORD_ROW_LENGTHS = {"read": (25, 16), "write": (33, 10)}
#: Every event kind's event, as the third element of a reply carries
#: it (:func:`_forced`, its reason one of ``REASONS``).
EVENT_BYTES = {"forced-detach": '[0,"lost-1",1,1000000001,9]'}


def test_every_row_costs_its_recorded_bytes():
    args = dict(CALL_ARGS, hello={"version": PROTOCOL_VERSION,
                                  "user": "golden"})
    assert set(ROW_BYTES) == set(OPS)
    for op, (request, result) in ROW_BYTES.items():
        payload, sidecar = ClientCore._prep(1, op, args[op])
        assert protocol.encode_body(payload).decode() == request, op
        response, reply_sidecar = _answer(payload)
        assert protocol.encode_body(response).decode() == result, op
        # No frame is longer than revision 5's: its body (the same, or
        # longer) behind a four-byte word, and a second for a sidecar.
        before = LENGTH_WORD_ROW_LENGTHS.get(op, (len(request),
                                                  len(result)))
        for frame, body, side in (
                (protocol.encode_frame(payload, sidecar or None),
                 before[0], sidecar),
                (protocol.encode_frame(response, reply_sidecar or None),
                 before[1], reply_sidecar)):
            assert len(frame) < 4 + body + (4 + len(side) if side
                                            else 0), op


def test_every_event_kind_costs_its_recorded_bytes():
    assert set(EVENT_BYTES) == set(ops.EVENTS)
    event = dict(_forced(1), reason="session EW budget elapsed")
    (carried,) = protocol.ok_response(1, [0], [event])[2]
    assert protocol.encode_body(carried).decode() == \
        EVENT_BYTES["forced-detach"]
    assert protocol.named_events([carried]) == [event]


#: One ``mem_cycle`` cycle, both ways: what its 12 request frames and
#: 12 reply frames (64-byte payloads on their sidecars) add up to.
#: Wire revision 5 spent 923 + 227 = 1 150 bytes on it, 9.7 more per
#: op; revision 4 989 + 288 = 1 277.
MEM_CYCLE_BYTES = (807, 181)


def test_a_mem_cycle_costs_its_recorded_bytes():
    """attach, a pipeline of 8 × 64 B writes, psync, a 64 B read and
    detach — the ``mem_cycle`` tenant's cycle, rids 4 to 15 — sent by
    the core and answered by a daemon's serve loop."""
    client = ServedClient(TerpService(port=0, obs_enabled=False))
    client.connect()
    client.create("mem", MIB)
    oid = client.pmalloc("mem", 64).pack()
    del client.sent[:], client.replies[:]
    client.attach("mem")
    client.pipeline([("write", {"oid": oid, "data": bytes([n]) * 64})
                     for n in range(8)])
    client.psync("mem")
    assert client.call("read", oid=oid, n=64)["data"] == bytes([7]) * 64
    client.detach("mem")
    assert (len(client.sent), len(client.replies)) == (12, 12)
    assert (sum(map(len, client.sent)), sum(map(len, client.replies))) \
        == MEM_CYCLE_BYTES


def _reason_texts():
    """Every fixed text the daemon can give as an attach/detach
    result's or a forced-detach event's ``reason``, read off the
    source: the arch engine's non-error attach and detach decisions
    (not its sweep's, which no result carries); every result or
    event dict the service builds; and every argument a session's
    ``reason``-taking method is called with (a local ``reason`` by the
    texts assigned to it)."""
    src = pathlib.Path(inspect.getfile(TerpService)).parents[1]

    def texts(node):
        return {n.value for n in ast.walk(node)
                if isinstance(n, ast.Constant) and type(n.value) is str}

    found = set()
    engine = ast.parse((src / "arch" / "cond_engine.py").read_text())
    calls = [call for fn in ast.walk(engine)
             if isinstance(fn, ast.FunctionDef) and
             fn.name in ("attach", "detach") for call in ast.walk(fn)]
    for call in calls:
        if isinstance(call, ast.Call) and getattr(
                call.func, "id", None) == "Decision" and \
                ast.unparse(call.args[0]) in (
                    "Outcome.PERFORMED", "Outcome.SILENT"):
            found |= {text for kw in call.keywords if kw.arg == "reason"
                      for text in texts(kw.value)}
    taking = {}
    for cls in (Session, SessionManager):
        for name, fn in inspect.getmembers(cls, inspect.isfunction):
            params = list(inspect.signature(fn).parameters)
            if "reason" in params:
                taking[name] = params.index("reason") - 1   # self
    for path in [*sorted((src / "service").glob("*.py")),
                 src / "cluster" / "router.py"]:
        tree = ast.parse(path.read_text())
        local = set().union(*(
            texts(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "reason"
                for target in node.targets)))
        for node in ast.walk(tree):
            given = []
            if isinstance(node, ast.Dict):
                keys = [getattr(key, "value", None) for key in node.keys]
                if "outcome" in keys or "event" in keys:
                    given += [value for key, value in zip(keys, node.values)
                              if key == "reason"]
            elif isinstance(node, ast.Call) and getattr(
                    node.func, "attr", None) in taking:
                given += [kw.value for kw in node.keywords
                          if kw.arg == "reason"]
                at = taking[node.func.attr]
                given += node.args[at:at + 1]
            for value in given:
                found |= local if getattr(value, "id", None) == "reason" \
                    else texts(value)
    return found


def test_every_fixed_reason_travels_as_its_index():
    """A reason missing from ``REASONS`` would still arrive — as text,
    and the saving with it would be gone without a test noticing."""
    found = _reason_texts()
    # The probe finds what it must: the engine's cases, the daemon's
    # own outcome and the sweeper's, drop's and recovery's reasons.
    assert {"case 1: first attach", "case 6: delayed detach",
            "already force-detached by sweeper",
            "session EW budget elapsed", "connection lost",
            "daemon restart"} <= found
    assert found - set(ops.REASONS) == set()
    assert len(set(ops.REASONS)) == len(ops.REASONS)


# -- one behaviour, two transports ---------------------------------------------

@pytest.fixture(params=["blocking", "asyncio"])
def either_client(request, terpd):
    """``(client, do)``: ``do(client.op(...))`` is the op's result on
    either transport (the asyncio client's methods return awaitables)."""
    if request.param == "blocking":
        with SyncTerpClient(port=terpd.port) as client:
            yield client, lambda value: value
        return
    loop = asyncio.new_event_loop()
    client = loop.run_until_complete(
        TerpClient(port=terpd.port).connect())
    yield client, loop.run_until_complete
    loop.run_until_complete(client.close())
    loop.close()


def test_pipeline_error_mid_burst_leaves_the_connection_in_sync(
        either_client):
    """Regression: an error reply mid-pipeline used to leave the later
    replies unread, so the *next* call died on "pipelining desync"."""
    client, do = either_client
    do(client.create("sync", MIB))
    do(client.attach("sync"))
    oid = do(client.pmalloc("sync", 16))
    with pytest.raises(RemoteError) as err:
        do(client.pipeline([
            ("write", {"oid": oid.pack(), "data": b"first"}),
            ("read", {"oid": Oid(60_001, 0).pack(), "n": 4}),   # bad
            ("write", {"oid": oid.pack(), "data": b"third"}),
        ]))
    assert not isinstance(err.value, ConnectionError)
    assert "60001" in str(err.value)
    # Every reply was drained: the same connection keeps working, and
    # the write *after* the bad slot did run.
    assert "now_ns" in do(client.ping())
    assert do(client.read(oid, 5)) == b"third"
    do(client.write_u64(oid, 11))
    assert do(client.read_u64(oid)) == 11
    assert do(client.tx_begin("sync")) >= 0
    do(client.tx_abort("sync"))
    do(client.detach("sync"))
    assert "closed" in do(client.close_pmo("sync"))


# -- exactly-once, row by row --------------------------------------------------

#: One successful call of every op, in an order in which each can
#: succeed; ``oid`` is filled in from ``pmalloc``'s result.
SCRIPT = [
    ("hello", {"user": "matrix", "version": PROTOCOL_VERSION}),
    ("ping", {}), ("metrics", {}), ("trace", {"limit": 4}),
    ("prometheus", {}), ("repl_status", {}),
    ("create", {"name": "once", "size": MIB}),
    ("open", {"name": "once"}), ("attach", {"name": "once"}),
    ("pmalloc", {"name": "once", "size": 64}),
    ("write", {"oid": None, "data": 8}),
    ("read", {"oid": None, "n": 8}),
    ("write_u64", {"oid": None, "value": 7}), ("read_u64", {"oid": None}),
    ("psync", {"name": "once"}), ("tx_begin", {"name": "once"}),
    ("tx_abort", {"name": "once"}), ("pfree", {"oid": None}),
    ("detach", {"name": "once"}), ("close", {"name": "once"}),
    ("destroy", {"name": "once"}), ("goodbye", {}),
]


class TestExactlyOnce:
    """The replay cache holds what a second execution could change:
    every row that is not ``readonly``, and any response that drained
    events.  Nothing else — a plain read runs again."""

    @pytest.fixture
    def service(self):
        thread = ServiceThread(TerpService(
            port=0, seed=7, session_ew_ns=600_000_000_000))
        yield thread.start()
        thread.stop()

    @staticmethod
    def counts(service, name):
        return (service.metrics.ops.get(name, 0),
                service.metrics.replays_served)

    def test_a_retried_rid_replays_iff_its_row_mutates(self, service):
        assert sorted(name for name, _ in SCRIPT) == sorted(OPS)
        with RawWire(service.bound_port) as wire:
            oid = None
            for rid, (name, args) in enumerate(SCRIPT, start=1):
                if "oid" in args:
                    args = dict(args, oid=oid)
                sidecar = b"E" * 8 if OPS[name].bin_arg else None
                first = wire.exchange(rid, name, args, sidecar)
                assert first[0].ok, (name, first)
                if name == "pmalloc":
                    oid = first[0].result["oid"]
                ran, replays = self.counts(service, name)
                again = wire.exchange(rid, name, args, sidecar)
                if name == "goodbye":
                    # The session it ended is off the connection, and
                    # its replay cache with it: refused, not run twice.
                    assert again[0].error[1].endswith(
                        "requires a session; say hello first")
                    assert self.counts(service, name) == \
                        (ran + 1, replays)
                    continue
                assert again[0].ok, (name, again)
                if OPS[name].readonly:
                    assert self.counts(service, name) == \
                        (ran + 1, replays), name
                else:
                    assert again == first, name
                    assert self.counts(service, name) == \
                        (ran, replays + 1), name

    def test_a_readonly_response_that_carried_an_event_replays_with_it(
            self, service):
        with RawWire(service.bound_port) as wire:
            session = service.sessions.find(wire.hello()["session"])
            wire.exchange(2, "create", {"name": "evt", "size": MIB})
            wire.exchange(3, "attach", {"name": "evt"})
            oid = wire.exchange(
                4, "pmalloc", {"name": "evt", "size": 8})[0].result["oid"]
            wire.exchange(5, "write", {"oid": oid, "data": 8},
                          b"E" * 8)
            args = dict(SCRIPT, read={"oid": oid, "n": 8},
                        read_u64={"oid": oid})
            for rid, name in enumerate(sorted(ops.READ_ONLY_OPS), 10):
                with service.lib.lock:
                    session.note_forced_detach(
                        900 + rid, f"lost-{rid}", 1, "injected")
                first = wire.exchange(rid, name, args[name])
                assert [e["pmo"] for e in first[0].events] == \
                    [f"lost-{rid}"], name
                ran, replays = self.counts(service, name)
                # The drop that eats this response must not eat the
                # event: the retry gets both back, byte for byte.
                assert wire.exchange(rid, name, args[name]) == first
                assert self.counts(service, name) == (ran, replays + 1)
                if name == "read":
                    assert first[1] == b"E" * 8
            assert not session.events
