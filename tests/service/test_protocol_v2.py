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


def exchange(sock, rid, op, args, sidecar=None):
    """One raw v2 round trip: ``(response, sidecar)``."""
    protocol.send_frame(sock, protocol.request(rid, op, args), sidecar)
    return protocol.recv_frame_ex(sock)


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
        with socket.create_connection(
                ("127.0.0.1", terpd.bound_port), timeout=10) as sock:
            for rid, offer in enumerate(({}, {"version": 1},
                                         {"version": 3}), start=1):
                response, sidecar = exchange(
                    sock, rid, "hello", dict(offer, user="old"))
                assert not response["ok"] and sidecar == b""
                assert response["error"]["kind"] == "TerpError"
                assert (f"protocol version {offer.get('version')} "
                        "unsupported") in response["error"]["message"]
            response, _ = exchange(sock, 9, "hello",
                                   {"user": "new", "version": 2})
            assert response["ok"]
            assert response["result"]["version"] == PROTOCOL_VERSION

    def test_base64_payload_is_refused_typed(self, terpd):
        # The v1 encoding of binary data (base64 text under "data")
        # is no longer read: a typed refusal, not a decode attempt.
        with socket.create_connection(
                ("127.0.0.1", terpd.bound_port), timeout=10) as sock:
            assert exchange(sock, 1, "hello", {"version": 2})[0]["ok"]
            response, _ = exchange(sock, 2, "write",
                                   {"oid": 1, "data": "eHh4eA=="})
            assert not response["ok"]
            assert response["error"]["kind"] == "WireError"
            assert exchange(sock, 3, "ping", {})[0]["ok"]

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

    def test_replay_cache_keeps_the_sidecar(self, terpd):
        """A read served once replays — same request id, after a
        resume on a fresh connection — with its sidecar intact."""
        port = terpd.bound_port
        client = SyncTerpClient(port=port).connect()
        try:
            client.create("rep", MIB)
            client.attach("rep")
            oid = client.pmalloc("rep", 16)
            client.write(oid, b"R" * 16)
            rid = client._next_id + 1
            assert client.read(oid, 16) == b"R" * 16   # cached at rid
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                client._drop_socket()   # free the session binding
                terpd.run_sweep()       # let the daemon notice
                hello, _ = exchange(sock, 99, "hello", {
                    "user": "root", "version": 2,
                    "resume": client.session_id,
                    "token": client.resume_token})
                assert hello["ok"], hello
                replayed, sidecar = exchange(
                    sock, rid, "read", {"oid": oid.pack(), "n": 16})
                assert replayed["result"] == {"bin": 16}
                assert sidecar == b"R" * 16
        finally:
            client.close()


class TestTruncationAndHostileFrames:
    def _hello_frame(self) -> bytes:
        body = protocol.encode_body(protocol.request(
            1, "hello", {"user": "fuzz", "version": 2}))
        return protocol.frame_from_body(body)

    def _write_frame_with_sidecar(self) -> bytes:
        body = protocol.encode_body(protocol.request(
            2, "write", {"oid": 12345, "data": {"bin": 64}}))
        return protocol.frame_from_body(body, b"\xab" * 64)

    def test_truncated_sidecar_is_wire_error_not_hang(self, terpd):
        frame = self._write_frame_with_sidecar()
        assert HEADER.unpack(frame[:4])[0] & SIDECAR_FLAG
        # Cut everywhere interesting: mid-header, mid-body, at the
        # sidecar length word, and mid-sidecar.
        body_len = HEADER.unpack(frame[:4])[0] & protocol.LEN_MASK
        cuts = [2, 4 + body_len // 2, 4 + body_len,
                4 + body_len + 2, 4 + body_len + 4,
                4 + body_len + 4 + 32]
        for cut in cuts:
            with socket.create_connection(
                    ("127.0.0.1", terpd.bound_port),
                    timeout=10) as sock:
                sock.sendall(self._hello_frame())
                assert protocol.recv_frame_ex(sock)[0]["ok"]
                sock.sendall(frame[:cut])
                sock.shutdown(socket.SHUT_WR)
                # The server must close the connection (clean EOF or
                # reset), not stall waiting for the missing bytes.
                sock.settimeout(5.0)
                try:
                    got = protocol.recv_frame_ex(sock)
                except (WireError, ConnectionError):
                    got = None
                assert got is None

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
        with socket.create_connection(
                ("127.0.0.1", terpd.bound_port), timeout=10) as sock:
            sock.sendall(self._hello_frame())
            assert protocol.recv_frame_ex(sock)[0]["ok"]
            body = protocol.encode_body(protocol.request(
                7, "write", {"oid": 1, "data": {"bin": 4096}}))
            sock.sendall(protocol.frame_from_body(body, b"short"))
            response, sidecar = protocol.recv_frame_ex(sock)
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
                protocol.recv_frame_ex(server)
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
