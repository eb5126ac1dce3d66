"""Promotion: the standby becomes a live terpd, losslessly.

The semi-sync contract makes these tests deterministic: a psync the
client saw acked is a committed, fsynced journal in the standby's pool
before the ack, so a kill at *any* later moment leaves the promoted
daemon serving that value — the zero-acknowledged-write-loss invariant (I7) at unit
scale.  Promotion reuses the warm-restart RecoveryManager verbatim,
so the promoted daemon restores sessions, adopts the exposure epoch,
and force-detaches the windows that straddled the outage with the
outage attribution.
"""

import socket
import sys
import time

import pytest

from repro.core.units import MIB
from repro.obs.audit import RESTART
from repro.replication.applier import StandbyDaemon, promote
from repro.replication.wire import (
    REPL_PROTOCOL_VERSION, ReplicationWireError, recv_msg, send_msg)
from repro.service.client import SyncTerpClient
from repro.service.server import ServiceThread, TerpService


@pytest.fixture
def pair(tmp_path):
    """A replicated primary (ServiceThread) + warm standby."""
    standby = StandbyDaemon(
        tmp_path / "standby",
        service_kwargs={"session_ew_ns": 2_000_000_000,
                        "sweep_period_ns": 50_000_000,
                        "session_linger_ns": 10_000_000_000})
    repl_port = standby.start()
    thread = ServiceThread(TerpService(
        port=0, session_ew_ns=2_000_000_000,
        sweep_period_ns=50_000_000,
        session_linger_ns=10_000_000_000,
        pool_dir=tmp_path / "primary",
        replicate_to=f"127.0.0.1:{repl_port}"))
    service = thread.start()
    yield service, thread, standby
    thread.stop()
    standby.stop()


class TestPromotion:
    def test_kill_promote_serves_every_acked_write(self, pair):
        service, thread, standby = pair
        client = SyncTerpClient(port=service.bound_port,
                                user="alice").connect()
        client.create("pmo", MIB, mode=0o666)
        client.attach("pmo")
        oid = client.pmalloc("pmo", 64)
        for i in range(5):
            client.write_u64(oid, 100 + i)
            client.psync("pmo")
        status = client.call("repl_status")
        assert status["enabled"] and status["connected"]
        assert status["lag"] == 0
        assert status["acked"] == status["shipped"] >= 1

        # Kill *before* the client hangs up: a daemon that sees the
        # EOF first closes the window itself ("connection lost") and
        # nothing is left straddling the outage.
        thread.kill()                 # in-process SIGKILL
        client.close()
        time.sleep(0.05)              # a visible outage on the clock
        port = standby.promote(0)
        with SyncTerpClient(port=port, user="bob") as bob:
            bob.attach("pmo")
            assert bob.read_u64(oid) == 104
            # The promoted daemon ran recovery verbatim: restart on
            # the timeline, straddling windows force-closed with the
            # outage attribution, exposure clock unbroken.
            trace = bob.call("trace", limit=65536)
        events = trace["audit"]
        assert any(e.get("kind") == RESTART for e in events)
        assert any(e.get("kind") == "forced-detach"
                   and ("outage" in str(e.get("reason", ""))
                        or "restart" in str(e.get("reason", "")))
                   for e in events)

    def test_session_resumes_across_promotion(self, pair):
        service, thread, standby = pair
        client = SyncTerpClient(port=service.bound_port,
                                user="alice").connect()
        client.create("pmo", MIB, mode=0o666)
        client.attach("pmo")
        oid = client.pmalloc("pmo", 64)
        client.write_u64(oid, 7)
        client.psync("pmo")
        sid = client.session_id
        token = client.resume_token
        thread.kill()
        port = standby.promote(0)
        # The session journal was mirrored record-by-record, so the
        # promoted daemon accepts the pre-crash resume token.
        client._port = port
        client.connect()
        assert client.session_id == sid
        assert client.resume_token == token
        assert client.resumes >= 1
        # The crash force-closed the attachment; re-attach and go on.
        client.attach("pmo")
        assert client.read_u64(oid) == 7
        client.goodbye()
        client.close()

    def test_promote_is_idempotent(self, pair):
        service, thread, standby = pair
        thread.kill()
        port = standby.promote(0)
        assert standby.promote(0) == port
        assert standby.promote(12345) == port

    def test_promoted_standby_refuses_apply_frames(self, pair):
        service, thread, standby = pair
        thread.kill()
        standby.promote(0)
        with socket.create_connection(
                ("127.0.0.1", standby.bound_port),
                timeout=5.0) as sock:
            send_msg(sock, {"t": "hello",
                            "version": REPL_PROTOCOL_VERSION})
            head, _ = recv_msg(sock)
            assert head["t"] == "hello-ack"
            assert standby.promoted
            # An apply frame is refused: the promoted service owns the
            # pool directory now.
            send_msg(sock, {"t": "journal",
                            "line": {"kind": "noise"}})
            assert recv_msg(sock) is None

    def test_promoted_daemon_is_unreplicated_by_default(self, pair):
        service, thread, standby = pair
        thread.kill()
        port = standby.promote(0)
        with SyncTerpClient(port=port, user="carol") as carol:
            assert carol.call("repl_status") == {"enabled": False}


class TestFailedPromotion:
    """A promote that fails must not cost the standby: the supervisor
    falls back to a cold restart and keeps this failover target."""

    def write(self, client, oid, value):
        client.write_u64(oid, value)
        client.psync("pmo")

    def test_a_refused_override_leaves_the_standby_applying(self, pair):
        service, thread, standby = pair
        repl_port = standby.bound_port
        client = SyncTerpClient(port=service.bound_port,
                                user="alice").connect()
        client.create("pmo", MIB, mode=0o666)
        client.attach("pmo")
        oid = client.pmalloc("pmo", 64)
        self.write(client, oid, 1)
        before = standby.applier.status()["batches_applied"]
        # The reply is the standby's reason, not an EOF — twice over:
        # nothing was left half-promoted for the second to trip on.
        for _ in range(2):
            with pytest.raises(ReplicationWireError,
                               match="no_such_setting"):
                promote("127.0.0.1", repl_port, 0, no_such_setting=1)
        assert not standby.promoted
        # Still a standby: shipping continues, semi-sync, and applies.
        self.write(client, oid, 2)
        assert standby.applier.status()["batches_applied"] > before
        assert client.call("repl_status")["lag"] == 0
        thread.kill()
        client.close()
        port = promote("127.0.0.1", repl_port, 0)
        with SyncTerpClient(port=port, user="bob") as bob:
            bob.attach("pmo")
            assert bob.read_u64(oid) == 2

    def test_a_serving_stack_that_fails_to_import_refuses_the_promote(
            self, pair, monkeypatch):
        """A standby imports the service only when promoted, and before
        its applier closes: an import that fails leaves it applying."""
        service, thread, standby = pair
        client = SyncTerpClient(port=service.bound_port,
                                user="alice").connect()
        client.create("pmo", MIB, mode=0o666)
        client.attach("pmo")
        oid = client.pmalloc("pmo", 64)
        self.write(client, oid, 1)
        before = standby.applier.status()["batches_applied"]
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, "repro.service.server", None)
            with pytest.raises(ReplicationWireError,
                               match="repro.service.server halted"):
                promote("127.0.0.1", standby.bound_port, 0)
        assert not standby.promoted
        self.write(client, oid, 2)
        assert standby.applier.status()["batches_applied"] > before
        assert client.call("repl_status")["lag"] == 0
        client.close()

    def test_a_failed_bind_is_retried_with_the_mirror_intact(self, pair):
        service, thread, standby = pair
        repl_port = standby.bound_port
        client = SyncTerpClient(port=service.bound_port,
                                user="alice").connect()
        client.create("pmo", 4 * MIB, mode=0o666)
        client.attach("pmo")
        # Several pages, so "intact" means more than one slot.
        oids = [client.pmalloc("pmo", 4096) for _ in range(6)]
        for index, oid in enumerate(oids):
            client.write(oid, bytes([index + 1]) * 4096)
        client.psync("pmo")
        thread.kill()
        client.close()
        with socket.socket() as squatter:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen(1)
            taken = squatter.getsockname()[1]
            with pytest.raises(ReplicationWireError,
                               match="[Aa]ddress already in use"):
                promote("127.0.0.1", repl_port, taken)
            # Unpromoted, nothing half-built, and told so.
            assert not standby.promoted
            assert standby.service_thread is None
        port = promote("127.0.0.1", repl_port, taken)
        assert port == taken and standby.promoted
        with SyncTerpClient(port=port, user="bob") as bob:
            bob.attach("pmo")
            for index, oid in enumerate(oids):
                assert bob.read(oid, 4096) == bytes([index + 1]) * 4096
            assert bob.metrics()["recovery"]["pmos_quarantined"] == []
