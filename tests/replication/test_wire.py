"""The replication wire format: framing, bounds, rows, typed errors."""

import json
import os
import socket
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import repro
from repro.core.units import PAGE_SIZE
from repro.replication.wire import (
    KINDS, MESSAGES, ReplicationWireError, recv_msg, send_msg)
from repro.service.protocol import (
    MAX_FRAME_BYTES, MAX_SIDECAR_BYTES, pack_head)
from tests.service.test_frame_splitter import varint


def pair():
    a, b = socket.socketpair()
    return a, b


def raw_frame(values, payload=b""):
    """A frame with ``values`` as its JSON body, whatever they are:
    the client wire's layout, sidecar flagged when there is one."""
    body = json.dumps(values, separators=(",", ":")).encode()
    return pack_head(len(body), len(payload)) + body + payload


def row(kind, *values):
    """A message body as it travels: its kind's row index, then
    ``values``."""
    return [KINDS.index(kind), *values]


def batch(seq, pages=()):
    return {"t": "batch", "pmo": "p", "pmo_id": 1, "seq": seq,
            "prev": seq - 1, "pages": [list(entry) for entry in pages]}


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
        send_msg(a, batch(7, [(0, 1), (1, 2)]), blob)
        header, payload = recv_msg(b)
        assert header == batch(7, [(0, 1), (1, 2)])
        assert payload == blob
        a.close(), b.close()

    def test_many_frames_in_order(self):
        a, b = pair()
        for i in range(20):
            send_msg(a, batch(i), b"x" * i)
        for i in range(20):
            header, payload = recv_msg(b)
            assert header["seq"] == i
            assert payload == b"x" * i
        a.close(), b.close()

    def test_large_payload_crosses_recv_chunks(self):
        a, b = pair()
        blob = b"\xab" * (1 << 20)
        done = threading.Thread(
            target=lambda: send_msg(a, batch(1), blob))
        done.start()
        header, payload = recv_msg(b)
        done.join()
        assert payload == blob
        a.close(), b.close()

    def test_every_row_round_trips(self):
        """A value of each field's type, for every row: what comes back
        is the message sent."""
        sample = {int: 3, bool: True, str: "p", list: [[0, 1]],
                  dict: {"k": "v"}}
        a, b = pair()
        for kind, row in MESSAGES.items():
            message = {"t": kind, **{name: sample[typ]
                                     for name, typ in row}}
            send_msg(a, message)
            assert recv_msg(b) == (message, b"")
        a.close(), b.close()


class TestEofAndErrors:
    def test_orderly_eof_at_boundary_is_none(self):
        a, b = pair()
        a.close()
        assert recv_msg(b) is None
        b.close()

    def test_eof_mid_frame_is_typed(self):
        """In the body, in the head, in the sidecar."""
        for stream in (pack_head(100) + b"short", pack_head(100, 5)[:1],
                       pack_head(100, 500)[:3],
                       raw_frame(row("header", "p"), b"page")[:-2]):
            a, b = pair()
            a.sendall(stream)
            a.close()
            with pytest.raises(ReplicationWireError):
                recv_msg(b)
            b.close()

    def test_oversized_send_refused(self):
        a, b = pair()
        with pytest.raises(ReplicationWireError):
            send_msg(a, batch(1), bytearray(MAX_SIDECAR_BYTES + 1))
        with pytest.raises(ReplicationWireError):
            send_msg(a, {"t": "error", "error": "x" * MAX_FRAME_BYTES})
        a.close(), b.close()

    @pytest.mark.parametrize("message", [
        {"t": "ack", "pmo": "p"},
        {"t": "ack", "pmo": "p", "seq": 1, "prev": 0},
    ], ids=["short", "long"])
    def test_a_message_that_is_not_its_row_is_not_sent(self, message):
        a, b = pair()
        with pytest.raises(TypeError):
            send_msg(a, message)
        a.close()
        assert recv_msg(b) is None
        b.close()

    def test_oversized_length_prefix_refused(self):
        """A body length past ``MAX_FRAME_BYTES``, flagged or not, a
        sidecar length past ``MAX_SIDECAR_BYTES`` — refused from the
        head, no body byte sent — and an empty body (revision 4's
        length word reads as one)."""
        for word in (varint((MAX_FRAME_BYTES + 1) << 1),
                     varint((MAX_FRAME_BYTES + 1) << 1 | 1),
                     varint(2 << 1 | 1, 1) + varint(MAX_SIDECAR_BYTES + 1),
                     b"\x00\x00\x00\x05[0,4]"):
            a, b = pair()
            a.sendall(word)
            with pytest.raises(ReplicationWireError):
                recv_msg(b)
            a.close(), b.close()

    def test_garbage_header_is_typed(self):
        """A body that is not JSON."""
        a, b = pair()
        a.sendall(pack_head(8) + b"not json")
        with pytest.raises(ReplicationWireError):
            recv_msg(b)
        a.close(), b.close()

    @pytest.mark.parametrize("values", [
        {"t": "ack", "pmo": "p", "seq": 1},
        [],
        ["ack", "p", 1],
        [len(KINDS)],
        row("ack", "p"),
        row("ack", "p", 1, 2),
        row("ack", "p", "1"),
        row("ack", "p", 1.0),
        row("ack", "p", True),
        row("hello-ack", 1, 3),
        row("journal", ["not", "an", "object"]),
        [float(KINDS.index("ack")), "p", 1],
        [-1, "p", 1],
    ], ids=["object", "empty", "kind-by-name", "no-such-kind",
            "short", "long", "str-for-int", "float-for-int",
            "bool-for-int", "int-for-bool", "list-for-dict",
            "float-for-kind", "negative-kind"])
    def test_a_body_that_is_not_its_row_is_typed(self, values):
        a, b = pair()
        a.sendall(raw_frame(values))
        with pytest.raises(ReplicationWireError, match="malformed"):
            recv_msg(b)
        a.close(), b.close()

    def test_a_length_prefix_alone_commits_no_memory(self):
        """A head announcing the largest legal body, or sidecar (behind
        a body that is its row), then EOF: the typed error, and the
        receiver's ``VmHWM`` rises by
        under 2 MiB (a buffer committed up front rose by all that was
        announced).  Measured in a fresh interpreter, whose high-water
        mark no earlier test has raised."""
        probe = textwrap.dedent("""
            import re, socket, sys
            from repro.replication.wire import (
                ReplicationWireError, recv_msg)

            def hwm_kib():
                with open("/proc/self/status") as status:
                    return int(re.search(r"VmHWM:\\s+(\\d+) kB",
                                         status.read()).group(1))

            a, b = socket.socketpair()
            a.sendall(bytes.fromhex(sys.argv[1]))
            a.close()
            before = hwm_kib()
            try:
                recv_msg(b)
            except ReplicationWireError:
                print(hwm_kib() - before)
        """)
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        body = json.dumps(row("header", "p")).encode()
        for words in (pack_head(MAX_FRAME_BYTES),
                      pack_head(len(body), MAX_SIDECAR_BYTES) + body):
            out = subprocess.run(
                [sys.executable, "-c", probe, words.hex()], env=env,
                capture_output=True, text=True, timeout=60)
            assert out.stdout.strip(), out.stderr
            assert int(out.stdout) < 2048, \
                f"VmHWM rose {out.stdout} KiB on {words[:4].hex()}"


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
        joined — and the bytes on the wire are the joined frame's: the
        row's values as the body, the payload as the sidecar."""
        a, b = pair()
        send_msg(a, batch(3, [(0, 1)]), payload)
        a.close()
        got = bytearray()
        while chunk := b.recv(1 << 16):
            got += chunk
        b.close()
        assert bytes(got) == raw_frame(row("batch", "p", 1, 3, 2, [[0, 1]]),
                                       joined)
