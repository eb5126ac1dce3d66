"""The wire: hello's version check and the binary sidecar.

The contract under test: client and server move PMO data as raw bytes
in a frame sidecar (zero base64); a ``hello`` that offers any revision
but 2 — the retired v1 included, and an absent ``version`` is v1 — is
refused with a typed error; and a truncated or short-counted sidecar
is a typed :class:`WireError`, never a hang.
"""

import asyncio
import socket

import pytest

from repro.core.units import MIB
from repro.service import protocol
from repro.service.client import (
    ConnectionLost, SyncTerpClient, TerpClient)
from repro.service.protocol import (
    HEADER, PROTOCOL_VERSION, SIDECAR_FLAG, WireError)
from tests.service.rawwire import RawWire


def roundtrip(client, payload=b"\x00\xffbinary\x00 payload\xfe" * 40):
    client.create("v2rt", MIB)
    client.attach("v2rt")
    oid = client.pmalloc("v2rt", len(payload))
    assert client.write(oid, payload) == len(payload)
    assert client.read(oid, len(payload)) == payload
    client.detach("v2rt")


class TestNegotiation:
    def test_default_is_v2_both_ways(self, terpd):
        with SyncTerpClient(port=terpd.bound_port) as client:
            assert client.protocol_version == PROTOCOL_VERSION
            roundtrip(client)

    def test_v1_hello_is_rejected_with_typed_error(self, terpd):
        # An old client omits "version" entirely (that *is* v1), or
        # offers 1 outright; a future one might offer 3.  Each gets
        # the typed refusal, the connection stays in sync, and the
        # same connection may still say a proper hello afterwards.
        with RawWire(terpd.bound_port) as wire:
            for rid, offer in enumerate(({}, {"version": 1},
                                         {"version": 3}), start=1):
                response, sidecar = wire.exchange(
                    rid, "hello", dict(offer, user="old"))
                assert not response["ok"] and sidecar == b""
                assert response["error"]["kind"] == "TerpError"
                assert (f"protocol version {offer.get('version')} "
                        "unsupported") in response["error"]["message"]
            response, _ = wire.exchange(9, "hello",
                                        {"user": "new", "version": 2})
            assert response["ok"]
            assert response["result"]["version"] == PROTOCOL_VERSION

    def test_base64_payload_is_refused_typed(self, terpd):
        # The v1 encoding of binary data (base64 text under "data")
        # is no longer read: a typed refusal, not a decode attempt.
        with RawWire(terpd.bound_port) as wire:
            wire.hello()
            response, _ = wire.exchange(2, "write",
                                        {"oid": 1, "data": "eHh4eA=="})
            assert not response["ok"]
            assert response["error"]["kind"] == "WireError"
            assert wire.exchange(3, "ping", {})[0]["ok"]

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
                terpd.run_sweep()       # let the daemon notice
                wire.hello(99, user="root", resume=client.session_id,
                           token=client.resume_token)
                read = {"oid": oid.pack(), "n": 16}
                refused, sidecar = wire.exchange(rid, "read", read)
                assert not refused["ok"] and sidecar == b""
                assert "not attached" in refused["error"]["message"]
                assert wire.exchange(rid + 1, "attach",
                                     {"name": "rep"})[0]["ok"]
                again, sidecar = wire.exchange(rid, "read", read)
                assert again["result"] == {"bin": 16}
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
            assert not response["ok"]
            assert sidecar == b""
            assert "underrun" in response["error"]["message"]

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
        item = {"id": 1, "op": "write",
                "args": {"data": "x" * (6 * 1024 * 1024)}}
        with pytest.raises(WireError, match="batch frame exceeds"):
            protocol.encode_body([item, item, item])

    def test_oversized_sidecar_rejected(self):
        with pytest.raises(WireError, match="sidecar"):
            protocol.frame_from_body(
                b"{}", b"\x00" * (protocol.MAX_SIDECAR_BYTES + 1))
