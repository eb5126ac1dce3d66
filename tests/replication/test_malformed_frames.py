"""A frame whose fields do not parse drops the link, on either end.

A malformed frame is a :class:`ReplicationWireError`, which both ends
already answer with a typed drop: the shipper reconnects (instead of
losing its ack reader while it still counts as connected, so that
every later commit waits out the ack timeout), and the standby closes
that one link quietly (instead of an uncaught error in its thread).
"""

import socket
import threading

import pytest

from repro.core.units import PAGE_SIZE
from repro.pmo.store import PmoStore
from repro.replication.shipper import JournalShipper
from repro.replication.wire import (
    MESSAGES, REPL_PROTOCOL_VERSION, recv_msg, send_msg)
from tests.replication.test_commit_order import wait_for
from tests.replication.test_wire import raw_frame, row


class FakeStandby:
    """Answers every shipper hello; the first link then gets an ack
    whose ``seq`` is not an integer, and later links are answered only
    once :attr:`release` is set."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.links = []
        self.release = threading.Event()
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.links.append(conn)
            if len(self.links) > 1:
                self.release.wait(5.0)
            assert recv_msg(conn)[0]["t"] == "hello"
            send_msg(conn, {"t": "hello-ack", "ok": True,
                            "version": REPL_PROTOCOL_VERSION})
            if len(self.links) == 1:
                send_msg(conn, {"t": "ack", "pmo": "p", "seq": "x"})

    def close(self):
        self.listener.close()
        for conn in self.links:
            conn.close()


def test_malformed_ack_drops_the_link_and_the_dialer_reconnects(tmp_path):
    fake = FakeStandby()
    store = PmoStore(tmp_path)
    shipper = JournalShipper("127.0.0.1", fake.port, store=store,
                             reconnect_s=0.05)
    try:
        assert shipper.start()
        wait_for(lambda: not shipper.connected, timeout=1.0)
        assert "malformed 'ack' frame" in shipper.last_error
        fake.release.set()
        wait_for(lambda: shipper.connected and len(fake.links) == 2)
        assert shipper.reconnects == 2
    finally:
        shipper.stop()
        store.close()
        fake.close()


@pytest.mark.parametrize("values, pages", [
    (row("batch", "p", 1, "nope", -1, []), 0),
    (row("batch", 1, 1, -1, []), 0),
    (row("batch", "p", 1, 1, -1, [5]), 1),
    (row("header", "\ud800"), 1),
], ids=["seq-not-an-int", "no-pmo", "page-entry-not-a-list",
        "name-no-file-takes"])
def test_malformed_frame_drops_only_that_link(standby, monkeypatch, values,
                                              pages):
    """Sent raw: ``send_msg`` lays a message out by its whole row, so it
    cannot make the first two.  The last two fill their rows: the batch
    check refuses the third, and the fourth's name (a lone surrogate)
    cannot name a pool file."""
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)

    def hello(sock):
        send_msg(sock, {"t": "hello", "version": REPL_PROTOCOL_VERSION})
        assert recv_msg(sock)[0]["t"] == "hello-ack"

    address = ("127.0.0.1", standby.bound_port)
    with socket.create_connection(address, timeout=5.0) as sock:
        hello(sock)
        sock.sendall(raw_frame(values, bytes(PAGE_SIZE * pages)))
        assert recv_msg(sock) is None          # the link is dropped
    wait_for(lambda: not standby._conns)
    assert escaped == []
    with socket.create_connection(address, timeout=5.0) as sock:
        hello(sock)                            # and the next is served


@pytest.mark.parametrize("message", [
    {"t": "ack", "pmo": "p", "seq": 1},
    {"t": "hello-ack", "ok": True, "version": REPL_PROTOCOL_VERSION},
    {"t": "promoted", "port": 7077},
    {"t": "error", "error": "no"},
    [len(MESSAGES)],
    [],
], ids=["ack", "hello-ack", "promoted", "error", "no-such-kind",
        "no-kind"])
def test_a_kind_the_standby_is_not_sent_drops_its_link(standby, message):
    """A standby takes what a shipper or a promoter sends and nothing
    else: any other kind drops the link, where it was once ignored.  A
    kind no row names is sent raw (``send_msg`` has no row for it)."""
    address = ("127.0.0.1", standby.bound_port)
    with socket.create_connection(address, timeout=5.0) as sock:
        send_msg(sock, {"t": "hello", "version": REPL_PROTOCOL_VERSION})
        assert recv_msg(sock)[0]["t"] == "hello-ack"
        if isinstance(message, dict):
            send_msg(sock, message)
        else:
            sock.sendall(raw_frame(message))
        assert recv_msg(sock) is None
    wait_for(lambda: not standby._conns)
