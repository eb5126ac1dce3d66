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
from repro.replication import REPL_PROTOCOL_VERSION, JournalShipper
from repro.replication.wire import recv_msg, send_msg
from tests.replication.test_commit_order import wait_for


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


@pytest.mark.parametrize("frame", [
    {"t": "batch", "pmo": "p", "seq": "nope", "pages": []},
    {"t": "batch", "seq": 1, "pages": []},
    {"t": "batch", "pmo": "p", "seq": 1, "prev": -1, "pages": [5]},
], ids=["seq-not-an-int", "no-pmo", "page-entry-not-a-list"])
def test_malformed_frame_drops_only_that_link(standby, monkeypatch, frame):
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)

    def hello(sock):
        send_msg(sock, {"t": "hello", "version": REPL_PROTOCOL_VERSION})
        assert recv_msg(sock)[0]["t"] == "hello-ack"

    address = ("127.0.0.1", standby.bound_port)
    with socket.create_connection(address, timeout=5.0) as sock:
        hello(sock)
        send_msg(sock, frame, bytes(PAGE_SIZE * len(frame["pages"])))
        assert recv_msg(sock) is None          # the link is dropped
    wait_for(lambda: not standby._conns)
    assert escaped == []
    with socket.create_connection(address, timeout=5.0) as sock:
        hello(sock)                            # and the next is served
