"""The wire: framing, the positional shapes, hello's version check and
the binary sidecar.

The contract under test: a frame carries values, not names — a request
is ``[rid, op_index, v1, …]`` in its ``OPS`` row's ``params`` order, a
response ``[rid, outcome(, events)]``, a batch an array of either, and
a name from a closed table (op, event kind, outcome, reason) its index
there;
client and server move PMO data as raw bytes in a frame sidecar (zero
base64), and every ``{"bin": n}`` marker takes its bytes whether or
not its request is refused; a ``hello`` that offers any revision but
the current one — an absent ``version`` is v1 — an op sent by name
(revision 4 and before) or an object-shaped frame is refused with a
typed error; and a truncated or short-counted
sidecar is a typed :class:`WireError`, never a hang.
"""

import asyncio
import socket
import struct
import threading

import pytest

from repro.core.units import MIB
from repro.service import protocol
from repro.service.client import (
    ConnectionLost, SyncTerpClient, TerpClient)
from repro.service.protocol import (
    HEADER, MAX_FRAME_BYTES, PROTOCOL_VERSION, SIDECAR_FLAG, WireError,
    decode_frame, encode_frame)
from repro.service.ops import OP_INDEX, REASONS
from tests.service.rawwire import RawWire, Reply


class TestFraming:
    def test_roundtrip(self):
        payload = protocol.request(1, "trace", {"limit": 3, "kind": "x"})
        frame = encode_frame(payload)
        (length,) = HEADER.unpack(frame[:HEADER.size])
        assert length == len(frame) - HEADER.size
        assert decode_frame(frame[HEADER.size:]) == payload

    def test_batch_is_an_array(self):
        batch = [protocol.request(1, "ping"), protocol.request(2, "ping")]
        frame = encode_frame(batch)
        decoded = decode_frame(frame[HEADER.size:])
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
            self._read(struct.pack(">I", MAX_FRAME_BYTES + 1))


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
        assert not list(protocol.bin_slots(response))

    def test_bin_marker_length(self):
        assert protocol.bin_length({"bin": 64}) == 64
        # Anything but a {"bin": n} marker — base64 text included, the
        # retired v1 encoding — is a typed error, never a guess.
        for bad in ("aGVsbG8=", {"bin": "64"}, {}, None, 64):
            with pytest.raises(WireError):
                protocol.bin_length(bad)


def roundtrip(client, payload=b"\x00\xffbinary\x00 payload\xfe" * 40):
    client.create("v2rt", MIB)
    client.attach("v2rt")
    oid = client.pmalloc("v2rt", len(payload))
    assert client.write(oid, payload) == len(payload)
    assert client.read(oid, len(payload)) == payload
    # A zero-byte read still answers its marker with bytes.
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
        with SyncTerpClient(port=terpd.bound_port) as client:
            assert client.protocol_version == PROTOCOL_VERSION
            roundtrip(client)

    def test_v1_hello_is_rejected_with_typed_error(self, terpd):
        # An old client omits "version" entirely (that *is* v1), or
        # offers 1 to 4 outright; a future one might offer 6.  Each
        # gets the typed refusal, the connection stays in sync, and the
        # same connection may still say a proper hello afterwards.
        with RawWire(terpd.bound_port) as wire:
            for rid, offer in enumerate(({}, {"version": 1},
                                         {"version": 2}, {"version": 3},
                                         {"version": 4}, {"version": 6}),
                                        start=1):
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
                    ([21, "ping"], ("TerpError", "protocol version <5")),
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

    def test_base64_payload_is_refused_typed(self, terpd):
        # The v1 encoding of binary data (base64 text under "data")
        # is no longer read: a typed refusal, not a decode attempt.
        with RawWire(terpd.bound_port) as wire:
            wire.hello()
            response, _ = wire.exchange(2, "write",
                                        {"oid": 1, "data": "eHh4eA=="})
            assert response.error[0] == "WireError"
            assert wire.exchange(3, "ping", {})[0].ok

    def test_async_client_negotiates_v2(self, terpd):
        async def drive():
            async with TerpClient(port=terpd.bound_port) as new:
                assert new.protocol_version == PROTOCOL_VERSION
                await new.create("anew", MIB)
                await new.attach("anew")
                oid = await new.pmalloc("anew", 32)
                await new.write(oid, b"y" * 32)
                assert await new.read(oid, 32) == b"y" * 32
        asyncio.run(drive())


class TestSidecarTraffic:
    def test_batch_sidecar_orders_chunks_per_item(self, terpd):
        with SyncTerpClient(port=terpd.bound_port) as client:
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

    def test_a_refused_batch_item_still_takes_its_bytes(self, terpd):
        """Regression: an item refused before its handler ran (here an
        unknown op) left its sidecar bytes for the next item, which
        then wrote them — ``AAAA`` where ``BBBB`` was sent."""
        with RawWire(terpd.bound_port) as wire:
            oid = attached(wire, "skip")
            wire.send([[10, "wirte", oid, {"bin": 4}],
                       protocol.request(11, "write", {
                           "oid": oid, "data": {"bin": 4}})],
                      b"AAAABBBB")
            (refused, written), _ = wire.recv()
            assert refused.error == ("WireError", "unknown op 'wirte'")
            assert written.result == {"n": 4}
            assert wire.exchange(12, "read", {"oid": oid, "n": 4})[1] \
                == b"BBBB"

    def test_a_frame_with_undeclared_values_is_refused(self, terpd):
        """A value the row does not declare is never dropped — a
        misspelt ``access`` used to attach ``rw`` — the frame is
        refused before anything runs."""
        with RawWire(terpd.bound_port) as wire:
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
                "oid": oid, "data": {"bin": 1}}, b"w")
            assert "not attached" in refused.error[1]

    def test_a_retried_read_after_resume_is_refused(self, terpd):
        """Resume restores identity and never access.  A plain read's
        response is not kept for replay (its ``OPS`` row is
        ``readonly``), so the same request id on a fresh connection
        runs again — against the window the drop force-closed — and
        the bytes come back only once the tenant re-attaches."""
        port = terpd.bound_port
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
                terpd.sweeper.run_sweep()   # let the daemon notice
                wire.hello(99, user="root", resume=client.session_id,
                           token=client.resume_token)
                read = {"oid": oid.pack(), "n": 16}
                refused, sidecar = wire.exchange(rid, "read", read)
                assert sidecar == b""
                assert "not attached" in refused.error[1]
                assert wire.exchange(rid + 1, "attach",
                                     {"name": "rep"})[0].ok
                again, sidecar = wire.exchange(rid, "read", read)
                assert again.outcome == [{"bin": 16}]
                assert sidecar == b"R" * 16
        finally:
            client.close()


class TestTruncationAndHostileFrames:
    def _write_frame_with_sidecar(self) -> bytes:
        body = protocol.encode_body(protocol.request(
            2, "write", {"oid": 12345, "data": {"bin": 64}}))
        return protocol.frame_from_body(body, b"\xab" * 64)

    def test_truncated_sidecar_is_wire_error_not_hang(self, terpd):
        frame = self._write_frame_with_sidecar()
        assert HEADER.unpack(frame[:4])[0] & SIDECAR_FLAG
        # Cut everywhere — mid-header, mid-body, at the sidecar length
        # word, mid-sidecar — through the daemon's serve loop (the
        # splitter alone meets every cut point of a longer stream in
        # test_frame_splitter.py).
        for cut in range(1, len(frame)):
            with RawWire(terpd.bound_port, timeout=5.0) as wire:
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
        # A {"bin": n} marker claiming more bytes than the sidecar
        # holds must fail the request, not desync the stream.
        bins = protocol.BinReader(b"abc")
        assert bins.take(2) == b"ab"
        with pytest.raises(WireError, match="underrun"):
            bins.take(10)
        with pytest.raises(WireError):
            bins.take(-1)

    def test_server_rejects_sidecar_underrun_request(self, terpd):
        with RawWire(terpd.bound_port) as wire:
            wire.hello()
            response, sidecar = wire.exchange(
                7, "write", {"oid": 1, "data": {"bin": 4096}}, b"short")
            assert sidecar == b""
            assert "underrun" in response.error[1]

    def test_flagged_oversize_length_is_wire_error(self):
        # The sidecar flag must not smuggle a huge body length past
        # the frame guard: a typed failure rather than a 2-GiB read
        # or a hang.
        server, client = socket.socketpair()
        try:
            client.sendall(HEADER.pack(SIDECAR_FLAG | 0x7FFFFFFF))
            client.close()
            with pytest.raises(WireError):
                RawWire(sock=server).recv()
        finally:
            server.close()

    def test_client_absorbs_clean_eof_mid_pipeline(self, terpd):
        # Sanity: ConnectionLost (not a hang) when the server dies
        # between pipelined sidecar frames.
        client = SyncTerpClient(port=terpd.bound_port).connect()
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
