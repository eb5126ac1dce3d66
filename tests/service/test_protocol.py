"""The wire: framing, the positional shapes, hello's version check and
the binary sidecar.

The contract under test: a frame carries values, not names — a request
is ``[rid, op_index, v1, …]`` in its ``OPS`` row's ``params`` order, a
response ``[rid, outcome(, events)]``, a batch an array of either, and
a name from a closed table (op, event kind, outcome, reason) its index
there;
client and server move PMO data as raw bytes in a frame sidecar (zero
base64), a binary slot holds its byte count, and a request with a
row takes its bytes whether or not it is refused — one without a row,
or without a count, loses the rest of the frame's sidecar; a ``hello``
that offers any revision but
the current one — an absent ``version`` is v1 — an op sent by name
(revision 4 and before) or an object-shaped frame is refused with a
typed error; and a truncated or short-counted
sidecar is a typed :class:`WireError`, never a hang.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.core.units import MIB
from repro.service import protocol
from repro.service.client import (
    ConnectionLost, SyncTerpClient, TerpClient)
from repro.service.protocol import (
    MAX_FRAME_BYTES, PROTOCOL_VERSION, WireError, decode_frame,
    encode_frame, parse_head)
from repro.service.ops import OP_INDEX, OPS, REASONS
from repro.service.server import ServiceThread, TerpService
from tests.service.rawwire import RawWire, Reply

#: A revision-5 client's first frame, its ``hello``: a four-byte length
#: word, then ``[1,0,5,"golden"]``.
REVISION_5_HELLO = bytes.fromhex(
    "000000165b312c302c352c22676f6c64656e222c3235302e305d")


class TestFraming:
    def test_roundtrip(self):
        payload = protocol.request(1, "trace", {"limit": 3, "kind": "x"})
        frame = encode_frame(payload)
        head, length, side = parse_head(frame)
        assert (head, side) == (1, 0) and length == len(frame) - head
        assert decode_frame(frame[head:]) == payload

    def test_batch_is_an_array(self):
        batch = [protocol.request(1, "ping"), protocol.request(2, "ping")]
        frame = encode_frame(batch)
        decoded = decode_frame(frame[parse_head(frame)[0]:])
        assert isinstance(decoded, list) and len(decoded) == 2
        assert protocol.is_batch(decoded)
        assert not protocol.is_batch(batch[0])

    def test_undecodable_body_raises(self):
        with pytest.raises(WireError):
            decode_frame(b"\xff\xfe not json")

    def test_oversized_frame_rejected_on_encode(self):
        huge = protocol.request(1, "write", {
            "oid": 1, "data": "x" * (MAX_FRAME_BYTES + 1)})
        with pytest.raises(WireError):
            encode_frame(huge)


class TestAsyncStreamFraming:
    def _read(self, *chunks):
        # StreamReader must be built inside the running loop.
        async def go():
            reader = asyncio.StreamReader()
            for chunk in chunks:
                reader.feed_data(chunk)
            reader.feed_eof()
            got = await protocol.read_frame(reader,
                                            protocol.FrameSplitter())
            return None if got is None else decode_frame(got[0])
        return asyncio.run(go())

    def test_read_frame_handles_split_delivery(self):
        frame = encode_frame(protocol.request(1, "ping"))
        # Byte-at-a-time delivery must still reassemble the frame.
        result = self._read(*[frame[i:i + 1] for i in range(len(frame))])
        assert result == [1, OP_INDEX["ping"]]

    def test_read_frame_eof_is_none(self):
        assert self._read() is None

    def test_read_frame_truncated_mid_frame(self):
        frame = encode_frame(protocol.request(1, "ping"))
        with pytest.raises(WireError):
            self._read(frame[:-2])

    def test_read_frame_hostile_length(self):
        with pytest.raises(WireError):
            self._read(((MAX_FRAME_BYTES + 1) << 1 | 0x8000_0000)
                       .to_bytes(4, "big"))


class TestBlockingSocketFraming:
    def test_send_recv_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            def sender():
                left.sendall(encode_frame(protocol.ok_response(9, {"v": 1})))
                left.close()

            thread = threading.Thread(target=sender)
            thread.start()
            wire = RawWire(sock=right)
            assert wire.recv() == (Reply(9, {"v": 1}), b"")
            assert wire.recv() is None   # clean EOF
            thread.join()
        finally:
            right.close()


class TestShapes:
    def test_request_lays_values_out_in_params_order(self):
        # The op is its row's index; the values follow in row order.
        attach, trace = OP_INDEX["attach"], OP_INDEX["trace"]
        assert (attach, trace) == (11, 4)
        assert protocol.request(1, "attach", {"access": "r", "name": "p"}) \
            == [1, attach, "p", "r"]
        # Trailing values not given, or equal to their row default, are
        # dropped; interior ones not given are null.
        assert protocol.request(1, "attach", {"access": "rw", "name": "p"}) \
            == [1, attach, "p"]
        assert protocol.request(2, "trace", {"limit": 5, "kind": "k"}) == \
            [2, trace, 5, None, "k"]
        assert protocol.request(3, "trace", {"limit": 5, "pmo": None}) == \
            [3, trace, 5]
        assert protocol.request(3, "trace", {"limit": 100}) == [3, trace]
        assert protocol.request(4, "ping") == [4, OP_INDEX["ping"]]
        # An op no row names goes as given, for the peer to refuse.
        assert protocol.request(5, "wirte") == [5, "wirte"]
        assert protocol.head([5, trace, 5]) == (5, "trace")
        assert protocol.head([5, "trace"]) == (5, None)
        assert protocol.head([5, len(OP_INDEX)]) == (5, None)

    def test_request_refuses_an_undeclared_name(self):
        with pytest.raises(TypeError, match="acess"):
            protocol.request(1, "attach", {"name": "p", "acess": "r"})
        with pytest.raises(TypeError):
            protocol.request(1, "no-such-op", {"x": 1})

    def test_ok_response_carries_events_only_when_present(self):
        assert protocol.ok_response(1, [64]) == [1, [64]]
        event = {"event": "forced-detach", "pmo": "p", "pmo_id": 3,
                 "at_ns": 50, "reason": "budget"}
        response = protocol.ok_response(1, [64], [event])
        # The kind is its EVENTS row's index; a reason no table holds
        # travels as its text, one the table holds as its index.
        assert response[2] == [[0, "p", 3, 50, "budget"]]
        assert protocol.named_events(response[2]) == [event]
        tabled = dict(event, reason="session EW budget elapsed")
        response = protocol.ok_response(1, [64], [tabled])
        assert response[2] == [[0, "p", 3, 50, 9]]
        assert protocol.named_events(response[2]) == [tabled]
        for bad in ([[1, "p", 3, 50, 9]], [["forced-detach", "p", 3, 50,
                                            9]],
                    [[0, "p", 3, 50, len(REASONS)]], [[0, "p", 3, 50]]):
            with pytest.raises(WireError):
                protocol.named_events(bad)

    def test_a_result_is_its_rows_values(self):
        assert protocol.response(4, "write", {"n": 64}) == [4, [64]]
        assert protocol.response(5, "ping", {
            "sessions": 2, "now_ns": 9}) == [5, [9, 2]]
        report = {"global": {}}
        assert protocol.response(6, "metrics", report) == [6, [report]]
        assert protocol.named_result("ping", [9, 2]) == \
            {"now_ns": 9, "sessions": 2}
        assert protocol.named_result("metrics", [report]) is report
        # An outcome is its index in ``Outcome``, a reason its index in
        # ``REASONS`` — or its text, when the table does not hold it.
        attached = {"outcome": "performed", "reason": "case 1: first attach"}
        assert protocol.response(7, "attach", attached) == [7, [0, 0]]
        assert protocol.named_result("attach", [0, 0]) == attached
        odd = {"outcome": "silent", "reason": "made up at run time"}
        assert protocol.response(8, "detach", odd) == \
            [8, [1, "made up at run time"]]
        assert protocol.named_result("detach", [1, "made up at run time"]) \
            == odd
        for op, values in (("ping", [9]), ("ping", {"now_ns": 9}),
                           ("no-such-op", [1]), ("attach", [0, 99]),
                           ("attach", [-1, 0])):
            with pytest.raises(WireError):
                protocol.named_result(op, values)

    def test_error_response(self):
        response = protocol.error_response(3, "PmoError", "nope: x")
        assert response == [3, "PmoError: nope: x"]
        assert protocol.error_of(response[1]) == ("PmoError", "nope: x")
        # A refusal holds no binary result, whatever its op's row says.
        read, write = OPS["read"], OPS["write"]
        assert protocol.bin_result(read, response) == (None, 0)
        assert protocol.bin_result(read, [3, [48]]) == ([48], 48)
        assert protocol.bin_result(write, [3, [48]]) == (None, 0)

    def test_bin_marker_length(self):
        # A binary slot holds its byte count, a bare int.
        assert protocol.bin_length(64) == 64
        assert protocol.bin_length(0) == 0
        # Anything else — base64 text (the retired v1 encoding) and
        # revision 5's ``{"bin": n}`` object included — is a typed
        # error, never a guess.
        for bad in ("aGVsbG8=", {"bin": 64}, "64", None, -1, True, 6.4):
            with pytest.raises(WireError):
                protocol.bin_length(bad)

    def test_absorb_finds_each_slot_by_its_row(self):
        bins = protocol.BinReader(b"abcde")
        batch = [[1, [3]], [2, "PmoError: no"], [3, [9, 2]], [4, [2]]]
        for response, op in zip(batch, ["read", "read", "ping", "read"]):
            protocol.absorb(op, response, bins)
        assert batch == [[1, [b"abc"]], [2, "PmoError: no"],
                         [3, [9, 2]], [4, [b"de"]]]
        with pytest.raises(WireError, match="underrun"):
            protocol.absorb("read", [1, [3]], protocol.BinReader(b"xy"))

    def test_absorb_sidecar_leaves_each_count_in_place(self):
        # A frame does not say which op it answers, so the two-argument
        # entry finds no slot — whatever the slot holds, it stays.
        assert protocol.absorb_sidecar([1, [2]], b"xy") == [1, [2]]
        assert protocol.absorb_sidecar([[1, [{"bin": 2}]]], b"xy") == \
            [[1, [{"bin": 2}]]]

def roundtrip(client, payload=b"\x00\xffbinary\x00 payload\xfe" * 40):
    client.create("v2rt", MIB)
    client.attach("v2rt")
    oid = client.pmalloc("v2rt", len(payload))
    assert client.write(oid, payload) == len(payload)
    assert client.read(oid, len(payload)) == payload
    # A zero-byte read still answers its count with bytes.
    assert client.read(oid, 0) == b""
    client.detach("v2rt")


def attached(wire, name, *, attach=True):
    """Hello, create ``name`` and allocate in it (attached unless told
    otherwise) over a raw connection; the allocation's packed oid."""
    wire.hello()
    assert wire.exchange(2, "create", {"name": name, "size": MIB})[0].ok
    oid = wire.exchange(3, "pmalloc", {"name": name, "size": 64})[0] \
        .result["oid"]
    if attach:
        assert wire.exchange(4, "attach", {"name": name})[0].ok
    return oid


class TestNegotiation:
    def test_default_is_v2_both_ways(self, terpd):
        with SyncTerpClient(port=terpd.port) as client:
            assert client.protocol_version == PROTOCOL_VERSION
            roundtrip(client)

    def test_v1_hello_is_rejected_with_typed_error(self, terpd):
        # An old client omits "version" entirely (that *is* v1), or
        # offers 1 to 5 outright; a future one might offer 7.  Each
        # gets the typed refusal, the connection stays in sync, and the
        # same connection may still say a proper hello afterwards.
        with RawWire(terpd.port) as wire:
            for rid, offer in enumerate(({}, {"version": 1},
                                         {"version": 2}, {"version": 3},
                                         {"version": 4}, {"version": 5},
                                         {"version": 7}), start=1):
                response, sidecar = wire.exchange(
                    rid, "hello", dict(offer, user="old"))
                assert response.rid == rid and sidecar == b""
                kind, message = response.error
                assert kind == "TerpError"
                assert (f"protocol version {offer.get('version')} "
                        "unsupported") in message
            # A revision-4 client names its op: its hello is refused by
            # the version it offers, any other op by name alike.  An
            # index no row has is an unknown op.
            for frame, expected in (
                    ([20, "hello", 4, "old"],
                     ("TerpError", "protocol version 4 unsupported")),
                    ([21, "ping"], ("TerpError", "protocol version <6")),
                    ([22, len(OP_INDEX)],
                     ("WireError", f"unknown op {len(OP_INDEX)}"))):
                wire.send(frame)
                response, _ = wire.recv()
                kind, message = response.error
                assert response.rid == frame[0] and kind == expected[0]
                assert message.startswith(expected[1]), message
            # A v2 client's frame is an object: refused the same way,
            # however it spells its hello.
            wire.send({"id": 8, "op": "hello",
                       "args": {"user": "old", "version": 2}})
            response, _ = wire.recv()
            kind, message = response.error
            assert kind == "TerpError" and "unsupported" in message
            response, _ = wire.exchange(9, "hello", {
                "user": "new", "version": PROTOCOL_VERSION})
            assert response.result["version"] == PROTOCOL_VERSION

    def test_a_revision_5_peer_is_dropped_unanswered(self):
        """Revision 5 framed with a four-byte length word; a hello's
        has no sidecar flag, so its first byte, 0, reads as a head
        announcing an empty body.  No typed
        refusal — one framing, no fallback — but the connection is
        dropped before anything runs, and the daemon serves on."""
        service = TerpService(port=0)
        thread = ServiceThread(service)
        port = thread.start().bound_port
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                sock.sendall(REVISION_5_HELLO)
                assert sock.recv(1) == b""
            assert service.metrics.ops.get("hello", 0) == 0
            assert not list(service.sessions)
            with SyncTerpClient(port=port) as client:
                assert client.protocol_version == PROTOCOL_VERSION
        finally:
            thread.stop()

    def test_base64_payload_is_refused_typed(self, terpd):
        # The v1 encoding of binary data (base64 text under "data")
        # is no longer read: a typed refusal, not a decode attempt.
        with RawWire(terpd.port) as wire:
            wire.hello()
            response, _ = wire.exchange(2, "write",
                                        {"oid": 1, "data": "eHh4eA=="})
            assert response.error[0] == "WireError"
            assert wire.exchange(3, "ping", {})[0].ok

    def test_async_client_negotiates_v2(self, terpd):
        async def drive():
            async with TerpClient(port=terpd.port) as new:
                assert new.protocol_version == PROTOCOL_VERSION
                await new.create("anew", MIB)
                await new.attach("anew")
                oid = await new.pmalloc("anew", 32)
                await new.write(oid, b"y" * 32)
                assert await new.read(oid, 32) == b"y" * 32
        asyncio.run(drive())


class TestSidecarTraffic:
    def test_batch_sidecar_orders_chunks_per_item(self, terpd):
        with SyncTerpClient(port=terpd.port) as client:
            client.create("bat", MIB)
            client.attach("bat")
            oids = [client.pmalloc("bat", 8) for _ in range(3)]
            payloads = [bytes([0x10 * (i + 1)]) * 8 for i in range(3)]
            # One batch frame, one combined request sidecar.
            client.batch([("write", {"oid": oid.pack(), "data": data})
                          for oid, data in zip(oids, payloads)])
            # One batch frame back with a combined response sidecar,
            # including a non-binary item wedged between reads.
            results = client.batch(
                [("read", {"oid": oids[0].pack(), "n": 8}),
                 ("ping", {}),
                 ("read", {"oid": oids[2].pack(), "n": 8})])
            assert results[0]["data"] == payloads[0]
            assert "now_ns" in results[1]
            assert results[2]["data"] == payloads[2]

    def test_a_count_in_a_bytes_slot_is_refused_before_sending(self,
                                                              terpd):
        """A write's ``data`` is sent as bytes, its slot carrying their
        count: an int there would be read as a count, and the item
        would take the next write's bytes — ``BBBB`` written into the
        first object, the second underrun.  The client refuses it
        before a byte leaves, and the pool is unchanged."""
        with SyncTerpClient(port=terpd.port) as client:
            client.create("cnt", MIB)
            client.attach("cnt")
            oa, ob = (client.pmalloc("cnt", 4) for _ in range(2))
            a, b = oa.pack(), ob.pack()
            client.batch([("write", {"oid": a, "data": b"aaaa"}),
                          ("write", {"oid": b, "data": b"bbbb"})])
            sends = (client.batch, client.pipeline,
                     lambda requests: [client.call(op, **args)
                                       for op, args in requests])
            for send in sends:
                with pytest.raises(TypeError, match="bytes, not int"):
                    send([("write", {"oid": a, "data": 4}),
                          ("write", {"oid": b, "data": b"BBBB"})])
            assert client.read(oa, 4) == b"aaaa"
            assert client.read(ob, 4) == b"bbbb"

    def test_a_refused_batch_item_still_takes_its_bytes(self, terpd):
        """Regression: an item refused before its handler ran (here a
        write with a value its row does not declare) left its sidecar
        bytes for the next item, which then wrote them — ``AAAA``
        where ``BBBB`` was sent."""
        with RawWire(terpd.port) as wire:
            oid = attached(wire, "skip")
            wire.send([[10, OP_INDEX["write"], oid, 4, "extra"],
                       protocol.request(11, "write", {
                           "oid": oid, "data": 4})],
                      b"AAAABBBB")
            (refused, written), _ = wire.recv()
            assert refused.error[0] == "BadRequest"
            assert written.result == {"n": 4}
            assert wire.exchange(12, "read", {"oid": oid, "n": 4})[1] \
                == b"BBBB"

    def test_an_unreadable_count_refuses_every_later_take(self, terpd):
        """A count is found by its request's row: after an item with
        no row, or with no count in its binary slot, where the next
        item's bytes start is not known, so every later write in the
        frame is refused — never fed bytes off a misaligned cursor —
        and items that take no bytes still run."""
        with RawWire(terpd.port) as wire:
            oid = attached(wire, "lost")
            write = OP_INDEX["write"]
            assert wire.exchange(5, "write", {"oid": oid, "data": 4},
                                 b"ZZZZ")[0].ok
            for rid, first in ((10, [10, "wirte", oid, 4]),
                               (20, [20, len(OP_INDEX), oid, 4]),
                               (30, [30, write, oid, {"bin": 4}]),
                               (40, [40, write, oid, "4"]),
                               (50, [50, write, oid])):
                wire.send([first, protocol.request(rid + 1, "ping"),
                           [rid + 2, write, oid, 4]], b"AAAABBBB")
                (refused, pong, lost), _ = wire.recv()
                assert not refused.ok and pong.ok, first
                kind, message = lost.error
                assert kind == "WireError", first
                assert message.startswith("sidecar cursor lost"), message
                assert wire.exchange(rid + 3, "read", {
                    "oid": oid, "n": 4})[1] == b"ZZZZ", first

    def test_a_frame_with_undeclared_values_is_refused(self, terpd):
        """A value the row does not declare is never dropped — a
        misspelt ``access`` used to attach ``rw`` — the frame is
        refused before anything runs."""
        with RawWire(terpd.port) as wire:
            oid = attached(wire, "undeclared", attach=False)
            # attach declares (name, access): a third value is refused
            # before anything runs, alone and inside a batch.
            wire.send([10, OP_INDEX["attach"], "undeclared", "r", "extra"])
            kind, message = wire.recv()[0].error
            assert kind == "BadRequest" and "takes 2 values" in message
            wire.send([[11, OP_INDEX["attach"], "undeclared", "r", "extra"],
                       protocol.request(12, "ping")])
            (refused, pong), _ = wire.recv()
            assert refused.error[0] == "BadRequest" and pong.ok
            refused, _ = wire.exchange(13, "write", {
                "oid": oid, "data": 1}, b"w")
            assert "not attached" in refused.error[1]

    def test_a_retried_read_after_resume_is_refused(self, terpd):
        """Resume restores identity and never access.  A plain read's
        response is not kept for replay (its ``OPS`` row is
        ``readonly``), so the same request id on a fresh connection
        runs again — against the window the drop force-closed — and
        the bytes come back only once the tenant re-attaches."""
        port = terpd.port
        client = SyncTerpClient(port=port).connect()
        try:
            client.create("rep", MIB)
            client.attach("rep")
            oid = client.pmalloc("rep", 16)
            client.write(oid, b"R" * 16)
            rid = client._next_id + 1
            assert client.read(oid, 16) == b"R" * 16   # served at rid
            with RawWire(port) as wire:
                client._drop_socket()   # free the session binding
                resume = {"user": "root", "version": PROTOCOL_VERSION,
                          "resume": client.session_id,
                          "token": client.resume_token}
                # Bound until the daemon has read the drop's EOF.
                for _ in range(500):
                    hello, _ = wire.exchange(99, "hello", resume)
                    if hello.ok:
                        break
                    assert "still bound" in hello.error[1], hello
                    time.sleep(0.01)
                assert hello.ok, hello
                read = {"oid": oid.pack(), "n": 16}
                refused, sidecar = wire.exchange(rid, "read", read)
                assert sidecar == b""
                assert "not attached" in refused.error[1]
                assert wire.exchange(rid + 1, "attach",
                                     {"name": "rep"})[0].ok
                again, sidecar = wire.exchange(rid, "read", read)
                assert again.outcome == [16]
                assert sidecar == b"R" * 16
        finally:
            client.close()


class TestTruncationAndHostileFrames:
    def _write_frame_with_sidecar(self) -> bytes:
        body = protocol.encode_body(protocol.request(
            2, "write", {"oid": 12345, "data": 64}))
        return protocol.frame_from_body(body, b"\xab" * 64)

    def test_truncated_sidecar_is_wire_error_not_hang(self, terpd):
        frame = self._write_frame_with_sidecar()
        assert parse_head(frame)[2] == 64
        # Cut everywhere — mid-head, mid-body, mid-sidecar — through
        # the daemon's serve loop (the
        # splitter alone meets every cut point of a longer stream in
        # test_frame_splitter.py).
        for cut in range(1, len(frame)):
            with RawWire(terpd.port, timeout=5.0) as wire:
                wire.hello()
                wire.sock.sendall(frame[:cut])
                wire.sock.shutdown(socket.SHUT_WR)
                # The server must close the connection (clean EOF or
                # reset), not stall waiting for the missing bytes.
                try:
                    got = wire.recv()
                except (WireError, ConnectionError):
                    got = None
                assert got is None, cut

    def test_sidecar_underrun_is_typed_error(self):
        # A count claiming more bytes than the sidecar holds must
        # fail the request, not desync the stream: the cursor is lost,
        # and no later take is served off it.
        bins = protocol.BinReader(b"abc")
        assert bins.take(2) == b"ab"
        with pytest.raises(WireError, match="underrun"):
            bins.take(10)
        with pytest.raises(WireError, match="lost"):
            bins.take(1)
        with pytest.raises(WireError):
            protocol.BinReader(b"abc").take(-1)

    def test_server_rejects_sidecar_underrun_request(self, terpd):
        with RawWire(terpd.port) as wire:
            wire.hello()
            response, sidecar = wire.exchange(
                7, "write", {"oid": 1, "data": 4096}, b"short")
            assert sidecar == b""
            assert "underrun" in response.error[1]

    def test_flagged_oversize_length_is_wire_error(self):
        # The sidecar flag must not smuggle a huge body length past
        # the frame guard: a typed failure rather than a 2-GiB read
        # or a hang.
        server, client = socket.socketpair()
        try:
            # A four-byte varint announcing a 2**29-byte body.
            client.sendall(b"\xbf\xff\xff\xff")
            client.close()
            with pytest.raises(WireError):
                RawWire(sock=server).recv()
        finally:
            server.close()

    def test_client_absorbs_clean_eof_mid_pipeline(self, terpd):
        # Sanity: ConnectionLost (not a hang) when the server dies
        # between pipelined sidecar frames.
        client = SyncTerpClient(port=terpd.port).connect()
        try:
            client.create("eof", MIB)
            client._drop_socket()
            with pytest.raises(ConnectionLost):
                client.ping()
        finally:
            client.close()


class TestOversizeGuards:
    def test_oversized_batch_fails_before_join(self):
        item = protocol.request(1, "write", {
            "oid": 1, "data": "x" * (6 * 1024 * 1024)})
        with pytest.raises(WireError, match="batch frame exceeds"):
            protocol.encode_body([item, item, item])

    def test_oversized_sidecar_rejected(self):
        with pytest.raises(WireError, match="sidecar"):
            protocol.frame_from_body(
                b"{}", b"\x00" * (protocol.MAX_SIDECAR_BYTES + 1))
