"""The replication wire format: framing, bounds, typed errors."""

import json
import os
import socket
import struct
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import repro
from repro.core.units import PAGE_SIZE
from repro.replication.wire import (
    MAX_FRAME_BYTES, ReplicationWireError, recv_msg, send_msg)


def pair():
    a, b = socket.socketpair()
    return a, b


class TestRoundTrip:
    def test_header_only(self):
        a, b = pair()
        send_msg(a, {"t": "hello", "version": 1})
        header, payload = recv_msg(b)
        assert header == {"t": "hello", "version": 1}
        assert payload == b""
        a.close(), b.close()

    def test_header_and_payload(self):
        a, b = pair()
        blob = bytes(range(256)) * 32
        send_msg(a, {"t": "batch", "seq": 7}, blob)
        header, payload = recv_msg(b)
        assert header["seq"] == 7
        assert payload == blob
        a.close(), b.close()

    def test_many_frames_in_order(self):
        a, b = pair()
        for i in range(20):
            send_msg(a, {"t": "ack", "seq": i}, b"x" * i)
        for i in range(20):
            header, payload = recv_msg(b)
            assert header["seq"] == i
            assert payload == b"x" * i
        a.close(), b.close()

    def test_large_payload_crosses_recv_chunks(self):
        a, b = pair()
        blob = b"\xab" * (1 << 20)
        done = threading.Thread(
            target=lambda: send_msg(a, {"t": "batch"}, blob))
        done.start()
        header, payload = recv_msg(b)
        done.join()
        assert payload == blob
        a.close(), b.close()


class TestEofAndErrors:
    def test_orderly_eof_at_boundary_is_none(self):
        a, b = pair()
        a.close()
        assert recv_msg(b) is None
        b.close()

    def test_eof_mid_frame_is_typed(self):
        a, b = pair()
        a.sendall(struct.pack(">I", 100) + b"short")
        a.close()
        with pytest.raises(ReplicationWireError):
            recv_msg(b)
        b.close()

    def test_oversized_send_refused(self):
        a, b = pair()
        with pytest.raises(ReplicationWireError):
            send_msg(a, {"t": "batch"},
                     bytearray(MAX_FRAME_BYTES + 1))
        a.close(), b.close()

    def test_oversized_length_prefix_refused(self):
        a, b = pair()
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ReplicationWireError):
            recv_msg(b)
        a.close(), b.close()

    def test_garbage_header_is_typed(self):
        a, b = pair()
        head = b"not json"
        body = struct.pack(">I", len(head)) + head
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ReplicationWireError):
            recv_msg(b)
        a.close(), b.close()

    def test_header_without_type_is_typed(self):
        a, b = pair()
        head = b"{\"seq\": 1}"
        body = struct.pack(">I", len(head)) + head
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ReplicationWireError):
            recv_msg(b)
        a.close(), b.close()

    def test_header_length_beyond_body_is_typed(self):
        a, b = pair()
        body = struct.pack(">I", 999) + b"{}"
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ReplicationWireError):
            recv_msg(b)
        a.close(), b.close()

    def test_a_length_prefix_alone_commits_no_memory(self):
        """A prefix announcing ``MAX_FRAME_BYTES``, then EOF: the typed
        error, and the receiver's ``VmHWM`` rises by under 2 MiB (a
        body buffer committed up front rose by the 64 MiB announced).
        Measured in a fresh interpreter, whose high-water mark no
        earlier test has raised."""
        probe = textwrap.dedent("""
            import re, socket, struct
            from repro.replication.wire import (
                MAX_FRAME_BYTES, ReplicationWireError, recv_msg)

            def hwm_kib():
                with open("/proc/self/status") as status:
                    return int(re.search(r"VmHWM:\\s+(\\d+) kB",
                                         status.read()).group(1))

            a, b = socket.socketpair()
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES))
            a.close()
            before = hwm_kib()
            try:
                recv_msg(b)
            except ReplicationWireError:
                print(hwm_kib() - before)
        """)
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip(), out.stderr
        assert int(out.stdout) < 2048, f"VmHWM rose {out.stdout} KiB"


def joined_frame(header, payload):
    """The frame as one joined buffer: prefix, header length, header
    JSON, payload."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return (struct.pack(">I", 4 + len(head) + len(payload))
            + struct.pack(">I", len(head)) + head + payload)


PAGES = [bytes([i]) * PAGE_SIZE for i in range(8)]


class TestByteIdentity:
    @pytest.mark.parametrize("payload, joined", [
        (b"", b""),
        (bytes(range(256)) * 3, bytes(range(256)) * 3),
        (PAGES, b"".join(PAGES)),
        ([memoryview(page) for page in PAGES], b"".join(PAGES)),
    ], ids=["header", "bytes", "pages", "views"])
    def test_send_msg_emits_the_joined_frame(self, payload, joined):
        """A payload sent as a page list goes out by gather, never
        joined — and the bytes on the wire are the joined frame's."""
        header = {"t": "batch", "seq": 3, "pages": [[0, 1]]}
        a, b = pair()
        send_msg(a, header, payload)
        a.close()
        got = bytearray()
        while chunk := b.recv(1 << 16):
            got += chunk
        b.close()
        assert bytes(got) == joined_frame(header, joined)
