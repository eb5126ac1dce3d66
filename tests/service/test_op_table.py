"""The op table is the only statement of the op set.

Conformance: every row of :mod:`repro.service.ops` has a server
handler, a routing rule the router honours, and the same typed method
on both clients — and nothing carries an op the table does not.  The
row is the wire schema: a typed call's keyword arguments reach the
handler as the same args dict whatever the frame spells.
Golden: the sans-IO client core, driven through one scripted 12-op
tenant cycle, emits exactly the positional frames recorded here — each
shorter than the object frame the same call made on wire revision 2.
"""

import asyncio

import pytest

from repro.cluster.router import TerpRouter
from repro.core.units import MIB
from repro.pmo.object_id import OFFSET_BITS, Oid
from repro.service import ops, protocol, retry
from repro.service.client import (
    RECV, SEND, ClientCore, RemoteError, SyncTerpClient, TerpClient)
from repro.service.ops import FANOUT, NAME, OID, OPS, SESSION
from repro.service.conn import Conn, admit
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import ServiceThread, TerpService
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
        with RawWire(terpd.bound_port) as wire:
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
#: 8+9 share a batch frame), header + JSON body (+ sidecar length word
#: + sidecar for the write) — 422 bytes.
GOLDEN_FRAMES = [bytes.fromhex(frame) for frame in (
    "0000001c5b312c2268656c6c6f222c332c22676f6c64656e222c3235302e305d",
    "0000001f5b322c22637265617465222c22676f6c64222c343139343330342c3338"
    "345d",
    "000000185b332c22617474616368222c22676f6c64222c227277225d",
    "000000175b342c22706d616c6c6f63222c22676f6c64222c36345d",
    "800000265b352c227772697465222c3834343432343933303133363036342c7b22"
    "62696e223a34387d5d00000030000102030405060708090a0b0c0d0e0f10111213"
    "1415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f",
    "000000215b362c2277726974655f753634222c3834343432343933303133363036"
    "342c375d",
    "000000125b372c227073796e63222c22676f6c64225d",
    "0000003e5b5b382c2272656164222c3834343432343933303133363036342c3438"
    "5d2c5b392c22726561645f753634222c3834343432343933303133363036345d5d",
    "000000235b31302c227472616365222c352c6e756c6c2c22666f726365642d6465"
    "74616368225d",
    "000000145b31312c22646574616368222c22676f6c64225d",
    "0000000e5b31322c22676f6f64627965225d",
)]
#: The same cycle's frame lengths on wire revision 2, whose JSON
#: objects spelled ``"id"``, ``"op"``, ``"args"`` and every argument
#: name: 801 bytes.
OBJECT_FRAME_LENGTHS = [83, 75, 63, 60, 126, 70, 48, 120, 68, 50, 38]


def _answer(request):
    rid, op = protocol.head(request)
    result = {
        "hello": {"session": 1, "entity": (1 << 20) + 1,
                  "version": PROTOCOL_VERSION, "ew_budget_us": 250.0,
                  "token": "ab" * 16, "resumed": False},
        "pmalloc": {"oid": GOLDEN_OID.pack()},
        "write": {"n": 48}, "psync": {"flushed": 1},
        "read": {"bin": 48}, "read_u64": {"value": 7},
        "trace": {"spans": [], "audit": [], "open_windows": []},
        "prometheus": {"text": ""}, "tx_begin": {"tx": 1},
    }.get(op, {})
    return protocol.ok_response(rid, result), \
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
                        self.inbox.append(self._serve(body))
                elif step[0] == RECV:
                    value = self.inbox.pop(0)
                step = steps.send(value)
        except StopIteration as stop:
            return stop.value

    @staticmethod
    def _serve(body):
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
    ]) == [{"n": 48}, {}]
    assert client.psync("gold") == 1                            # 7
    assert client.batch([
        ("read", {"oid": oid.pack(), "n": 48}),                  # 8
        ("read_u64", {"oid": oid.pack()}),                       # 9
    ]) == [{"data": GOLDEN_PAYLOAD}, {"value": 7}]
    client.trace(limit=5, kind="forced-detach")                 # 10
    client.detach("gold")                                       # 11
    client.goodbye()                                            # 12
    assert client.sent == GOLDEN_FRAMES
    # Values, not names: every frame shorter, the cycle under 480 B.
    assert all(len(frame) < before for frame, before
               in zip(GOLDEN_FRAMES, OBJECT_FRAME_LENGTHS))
    assert sum(map(len, GOLDEN_FRAMES)) <= 480 < sum(OBJECT_FRAME_LENGTHS)
    # Same bytes, fewer writes: the pipeline's two frames were one SEND.
    assert b"".join(client.sends) == b"".join(GOLDEN_FRAMES)
    assert len(client.sends) == len(GOLDEN_FRAMES) - 1


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
                "oid": GOLDEN_OID.pack(), "data": {"bin": i + 1}}),
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


# -- one behaviour, two transports ---------------------------------------------

@pytest.fixture(params=["blocking", "asyncio"])
def either_client(request, terpd):
    """``(client, do)``: ``do(client.op(...))`` is the op's result on
    either transport (the asyncio client's methods return awaitables)."""
    if request.param == "blocking":
        with SyncTerpClient(port=terpd.bound_port) as client:
            yield client, lambda value: value
        return
    loop = asyncio.new_event_loop()
    client = loop.run_until_complete(
        TerpClient(port=terpd.bound_port).connect())
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
    ("write", {"oid": None, "data": {"bin": 8}}),
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
            wire.exchange(5, "write", {"oid": oid, "data": {"bin": 8}},
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
