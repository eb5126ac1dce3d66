"""Wire protocol: framing, shapes, sidecar markers."""

import asyncio
import socket
import struct
import threading

import pytest

from repro.service import protocol
from repro.service.protocol import (
    HEADER, MAX_FRAME_BYTES, WireError, decode_frame, encode_frame)
from tests.service.rawwire import RawWire


class TestFraming:
    def test_roundtrip(self):
        payload = {"id": 1, "op": "ping", "args": {"x": [1, 2, 3]}}
        frame = encode_frame(payload)
        (length,) = HEADER.unpack(frame[:HEADER.size])
        assert length == len(frame) - HEADER.size
        assert decode_frame(frame[HEADER.size:]) == payload

    def test_batch_is_an_array(self):
        batch = [protocol.request(1, "ping"), protocol.request(2, "ping")]
        frame = encode_frame(batch)
        decoded = decode_frame(frame[HEADER.size:])
        assert isinstance(decoded, list) and len(decoded) == 2

    def test_undecodable_body_raises(self):
        with pytest.raises(WireError):
            decode_frame(b"\xff\xfe not json")

    def test_oversized_frame_rejected_on_encode(self):
        huge = {"data": "x" * (MAX_FRAME_BYTES + 1)}
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
        frame = encode_frame({"op": "ping"})
        # Byte-at-a-time delivery must still reassemble the frame.
        result = self._read(*[frame[i:i + 1] for i in range(len(frame))])
        assert result == {"op": "ping"}

    def test_read_frame_eof_is_none(self):
        assert self._read() is None

    def test_read_frame_truncated_mid_frame(self):
        frame = encode_frame({"op": "ping"})
        with pytest.raises(WireError):
            self._read(frame[:-2])

    def test_read_frame_hostile_length(self):
        with pytest.raises(WireError):
            self._read(struct.pack(">I", MAX_FRAME_BYTES + 1))


class TestBlockingSocketFraming:
    def test_send_recv_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            payload = {"id": 9, "ok": True, "result": {"v": 1}}

            def sender():
                left.sendall(encode_frame(payload))
                left.close()

            thread = threading.Thread(target=sender)
            thread.start()
            wire = RawWire(sock=right)
            assert wire.recv() == (payload, b"")
            assert wire.recv() is None   # clean EOF
            thread.join()
        finally:
            right.close()


class TestShapes:
    def test_ok_response_carries_events_only_when_present(self):
        assert "events" not in protocol.ok_response(1, {})
        response = protocol.ok_response(1, {}, [{"event": "forced-detach"}])
        assert response["events"][0]["event"] == "forced-detach"

    def test_error_response(self):
        response = protocol.error_response(3, "PmoError", "nope")
        assert response["ok"] is False
        assert response["error"]["kind"] == "PmoError"

    def test_bin_marker_length(self):
        assert protocol.bin_length({"bin": 64}) == 64
        # Anything but a {"bin": n} marker — base64 text included, the
        # retired v1 encoding — is a typed error, never a guess.
        for bad in ("aGVsbG8=", {"bin": "64"}, {}, None, 64):
            with pytest.raises(WireError):
                protocol.bin_length(bad)
