"""The replicated commit's order, at each point a crash can cut it.

A commit is: journal fsync (primary) → send → home fsync (primary) ‖
journal fsync (standby) → ack → home write (standby) → park on the ack
→ tickets retire.  Each test stops one side at one of those points
with an in-process hook — a stalled or failing writer, a wrapped send
half — never a sleep, and checks what a crash there must leave: equal
pool files, a journal recovery replays, or every acknowledged write
served back (``check_acked_writes``).  The locks the two sides hold
across the gaps are checked the same way: promotion waits for an apply
in flight, and nothing takes the shipper's send lock under a store
lock.
"""

import collections
import shutil
import socket
import threading
import time
import zlib

import pytest

from repro.core.errors import PmoError
from repro.core.units import MIB, PAGE_SIZE
from repro.faults.invariants import check_acked_writes
from repro.pmo import store as store_module
from repro.pmo.api import PmoLibrary
from repro.pmo.pmo import Pmo
from repro.pmo.store import DurablePages, PmoStore
from repro.replication import applier as applier_module
from repro.replication.applier import (
    ReplicationChainError, StandbyDaemon, promote)
from repro.replication.shipper import JournalShipper
from repro.replication.wire import REPL_PROTOCOL_VERSION, recv_msg, send_msg
from repro.service.client import SyncTerpClient
from repro.topology import Proc
from tests.replication.conftest import settled


def make_primary(tmp_path, port, **shipper_kwargs):
    """A store shipping to ``port``, with one PMO holding one
    committed page; returns ``(store, shipper, lib, pmo, oid)``."""
    store = PmoStore(tmp_path / "primary", commit_interval_us=0)
    shipper = JournalShipper("127.0.0.1", port, store=store,
                             reconnect_s=60.0, **shipper_kwargs)
    store.shipper = shipper
    assert shipper.start()
    lib = PmoLibrary(store=store)
    pmo = lib.PMO_create("p", MIB, mode=0o666)
    with lib.thread(1):
        lib.attach(pmo)
        oid = lib.pmalloc(pmo, 64 * PAGE_SIZE)
    commit(lib, pmo, oid, 1)
    return store, shipper, lib, pmo, oid


def commit(lib, pmo, oid, value):
    with lib.thread(1):
        lib.write(oid, bytes([value]) * 512)
        return lib.psync(pmo)


def pool_file(root):
    (path,) = root.glob("*.pmo")
    return path


def wait_for(condition, timeout=5.0):
    """Poll for something the other side does on its own thread."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


class Stall:
    """Wrap a writer so that it stops on entry until released."""

    def __init__(self, real):
        self.real = real
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, *args, **kwargs):
        self.entered.set()
        assert self.release.wait(10.0), "stalled writer never released"
        return self.real(*args, **kwargs)


class OrderedLock:
    """A lock that records a violation when a thread takes it while
    holding one of the locks that must come *after* it."""

    def __init__(self, inner, name, violations, never_under=()):
        self.inner, self.name = inner, name
        self.violations, self.never_under = violations, never_under
        self.depth = collections.Counter()     # thread id -> holds

    def acquire(self, *args, **kwargs):
        me = threading.get_ident()
        for other in self.never_under:
            if other.depth[me]:
                self.violations.append(f"{self.name} under {other.name}")
        got = self.inner.acquire(*args, **kwargs)
        if got:
            self.depth[me] += 1
        return got

    def release(self):
        self.depth[threading.get_ident()] -= 1
        self.inner.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info):
        self.release()


def check_lock_order(store, shipper):
    """Install the documented order — send lock before store locks —
    as a runtime check; returns the (live) list of violations."""
    violations = []
    store._lock = OrderedLock(store._lock, "store._lock", violations)
    store._io_lock = OrderedLock(store._io_lock, "store._io_lock",
                                 violations)
    shipper._send_lock = OrderedLock(
        shipper._send_lock, "send lock", violations,
        never_under=(store._lock, store._io_lock))
    return violations


def in_the_gap(shipper, before=None, after=None):
    """Run ``before`` / ``after`` around the shipper's send half —
    that is, between a commit's journal fsync and its home write."""
    real = shipper.send_commit

    def send_commit(name, *args):
        if before is not None:
            before(name)
        target = real(name, *args)
        if after is not None:
            after(name)
        return target

    shipper.send_commit = send_commit


class TestPrimaryCrashPoints:
    def test_killed_after_the_send_before_its_home_fsync(
            self, tmp_path, standby, monkeypatch):
        """(a) The standby already has the batch; the primary has it
        only as a committed journal.  A warm restart replays that
        journal, the reconnect bootstraps, and the two pool files are
        equal byte for byte."""
        store, shipper, lib, pmo, oid = make_primary(
            tmp_path, standby.bound_port)

        def killed(*args, **kwargs):
            raise OSError("killed before the home write")

        monkeypatch.setattr(store_module, "write_home", killed)
        with pytest.raises(OSError, match="killed"):
            commit(lib, pmo, oid, 2)
        monkeypatch.undo()
        store.abort_commits()
        shipper.abort()
        # It was sent: the standby applies it on its own thread, which
        # a loaded host may not have run yet.
        wait_for(lambda: settled(standby)["applied"]["p"] == 2)

        restarted = PmoStore(tmp_path / "primary")
        assert restarted.load_all().journals_applied == 1
        shipper = JournalShipper("127.0.0.1", standby.bound_port,
                                 store=restarted, reconnect_s=60.0)
        restarted.shipper = shipper
        assert shipper.start()
        wait_for(lambda: shipper.acked == shipper.shipped == 1)
        settled(standby)             # the bootstrap snapshot is home
        assert pool_file(tmp_path / "standby").read_bytes() == \
            pool_file(tmp_path / "primary").read_bytes()
        assert bytes([2]) * 512 in \
            pool_file(tmp_path / "primary").read_bytes()
        shipper.stop()
        restarted.close()

    @pytest.mark.parametrize("destroy_first", [True, False])
    def test_destroy_in_the_gap(self, tmp_path, standby,
                                destroy_first):
        """(e) ``PMO_destroy`` between the journal fsync and the home
        write, before or after the batch left: the batch's ticket
        fails typed and neither side is left with a file."""
        store, shipper, lib, pmo, oid = make_primary(
            tmp_path, standby.bound_port)
        if destroy_first:
            in_the_gap(shipper, before=store.destroy)
        else:
            in_the_gap(shipper, after=store.destroy)
        with pytest.raises(PmoError, match="destroyed"):
            commit(lib, pmo, oid, 2)
        mirror = standby.applier
        # The destroy frame is fire-and-forget.
        wait_for(lambda: not mirror.path_for("p").exists())
        for root in (store, mirror):
            assert not root.path_for("p").exists()
            assert not root.journal_path_for("p").exists()
        shipper.stop()
        store.close()

    def test_ack_of_a_destroyed_chain_never_counts_for_the_next(
            self, tmp_path, standby, monkeypatch):
        """A batch is sent, its PMO destroyed in the gap, and only
        then does the standby ack it.  The same name re-created starts
        a new chain at seq 1, and that chain's first ``psync`` waits
        for the standby's journal of *its* batch — not for the ack of
        seq 2 from the chain before (I7)."""
        store, shipper, lib, pmo, oid = make_primary(
            tmp_path, standby.bound_port)
        settled(standby)
        late = Stall(applier_module.write_journal)
        monkeypatch.setattr(applier_module, "write_journal", late)

        def destroy_before_the_ack(name):
            assert late.entered.wait(5.0)
            store.destroy(name)
            late.release.set()

        in_the_gap(shipper, after=destroy_before_the_ack)
        with pytest.raises(PmoError, match="destroyed"):
            commit(lib, pmo, oid, 2)
        del shipper.send_commit
        wait_for(lambda: shipper.acked == shipper.shipped == 2)
        settled(standby)

        again = Pmo(7, "p", MIB, storage=DurablePages(MIB))
        store.register(again)
        again.storage.write(0, b"the next chain")
        journal = Stall(late.real)
        monkeypatch.setattr(applier_module, "write_journal", journal)
        psync = threading.Thread(target=store.flush, args=(again,))
        psync.start()
        try:
            assert journal.entered.wait(5.0)
            psync.join(0.2)
            assert psync.is_alive(), \
                "released by the destroyed chain's ack"
        finally:
            journal.release.set()
        psync.join(5.0)
        assert not psync.is_alive()
        assert settled(standby)["applied"]["p"] == 1
        shipper.stop()
        store.close()

    def test_standby_stops_reading_mid_send(self, tmp_path):
        """(d) A standby that stops reading fails the send at the
        kernel timeout: the home write still happens, the commit
        completes degraded, ``dropped`` moves by one."""
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        conns = []

        def deaf_standby():
            """Answers the hello, reads up to the PMO's header, then
            never reads again."""
            conn, _ = listener.accept()
            conns.append(conn)
            assert recv_msg(conn)[0]["t"] == "hello"
            send_msg(conn, {"t": "hello-ack", "ok": True,
                            "version": REPL_PROTOCOL_VERSION})
            while recv_msg(conn)[0]["t"] != "header":
                pass

        accept = threading.Thread(target=deaf_standby, daemon=True)
        accept.start()
        store = PmoStore(tmp_path / "primary", commit_interval_us=0)
        shipper = JournalShipper(
            "127.0.0.1", listener.getsockname()[1], store=store,
            ack_timeout_s=0.2, reconnect_s=60.0)
        store.shipper = shipper
        assert shipper.start()
        shipper._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                 4096)
        lib = PmoLibrary(store=store)
        pmo = lib.PMO_create("p", MIB)
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 64 * PAGE_SIZE)
            lib.write(oid, b"\x07" * (64 * PAGE_SIZE))
            accept.join(5.0)
            assert shipper.connected and shipper.dropped == 0
            assert lib.psync(pmo) >= 64   # 256 KiB: no buffer holds it
        assert shipper.dropped == 1 and not shipper.connected
        assert shipper.last_error.startswith("ship:")
        assert len(store.present_pages("p")) >= 64
        assert not store.journal_path_for("p").exists()
        shipper.stop()
        store.close()
        for sock in (*conns, listener):
            sock.close()


class TestBootstrapInTheGap:
    """(c) The link reconnects, or a PMO is first seen, between a
    commit's two phases: the bootstrap snapshot is read from a pool
    whose committed journal already holds the batch, so it carries the
    batch *and* its seq; the commit parks on that snapshot's ack;
    nothing ships twice and nothing is skipped."""

    def drive(self, tmp_path, standby, gap):
        store, shipper, lib, pmo, oid = make_primary(
            tmp_path, standby.bound_port)
        violations = check_lock_order(store, shipper)
        in_the_gap(shipper, before=lambda name: gap(shipper, name))
        shipped, applied = shipper.shipped, \
            settled(standby)["batches_applied"]
        commit(lib, pmo, oid, 2)
        del shipper.send_commit       # the gap action ran: once only
        _, seq, pages = store.committed_state("p")
        status = settled(standby)
        # One frame carried the batch: the snapshot, not snapshot +
        # batch (shipped twice) and not a skipped batch (lag, or a
        # mirror without the value).
        assert shipper.shipped == shipped + 1
        assert status["batches_applied"] == applied + 1
        assert status["applied"]["p"] == seq
        assert shipper.acked == shipper.shipped
        assert shipper.dropped == 0 and status["chain_errors"] == 0
        mirror = PmoStore(tmp_path / "standby")
        assert mirror.load_all().journals_applied == 0
        assert mirror.committed_state("p")[2] == pages
        commit(lib, pmo, oid, 3)      # and the chain goes on from it
        assert settled(standby)["applied"]["p"] == seq + 1
        assert violations == []
        shipper.stop()
        store.close()

    def test_link_reconnects_between_the_phases(self, tmp_path,
                                                standby):
        def reconnect(shipper, name):
            shipper._drop_connection("test: link down in the gap")
            assert shipper._connect_once()

        self.drive(tmp_path, standby, reconnect)

    def test_pmo_first_seen_between_the_phases(self, tmp_path,
                                               standby):
        self.drive(tmp_path, standby,
                   lambda shipper, name: shipper._prev.pop(name))


class TestLockOrder:
    def test_send_lock_is_never_taken_under_a_store_lock(
            self, tmp_path, standby):
        """Every path into the shipper — register, commit (both
        halves), mirrored journal record, destroy, a reconnect's
        bootstrap — with the documented order installed as a check."""
        store, shipper, lib, pmo, oid = make_primary(
            tmp_path, standby.bound_port)
        violations = check_lock_order(store, shipper)
        lib.PMO_create("q", MIB)
        commit(lib, pmo, oid, 2)
        shipper.ship_journal({"rec": "attach", "sid": 1})
        shipper._drop_connection("test: link down")
        assert shipper._connect_once()
        commit(lib, pmo, oid, 3)
        lib.PMO_destroy("q")
        assert settled(standby)["applied"]["p"] == 3
        assert violations == []
        assert store._io_lock.depth and shipper._send_lock.depth
        shipper.stop()
        store.close()


class TestStandbyCrashPoints:
    def test_killed_after_the_ack_before_its_home_write(
            self, tmp_path, standby, monkeypatch):
        """(b) No ack before the standby's journal is committed; the
        ack before its home write.  The pool directory as a kill right
        after the ack leaves it recovers the batch from that journal,
        and a promotion over it serves the acknowledged bytes."""
        store, shipper, lib, pmo, oid = make_primary(
            tmp_path, standby.bound_port)
        # ``make_primary``'s commit returned at the standby's *ack*:
        # let its home write finish, or it would take the stall meant
        # for the next batch and hold the applier's lock against it.
        settled(standby)
        journal = Stall(applier_module.write_journal)
        home = Stall(applier_module.write_home)
        monkeypatch.setattr(applier_module, "write_journal", journal)
        monkeypatch.setattr(applier_module, "write_home", home)
        psync = threading.Thread(target=commit,
                                 args=(lib, pmo, oid, 2))
        psync.start()
        images = [tmp_path / "image-a", tmp_path / "image-b"]
        try:
            assert journal.entered.wait(5.0)
            psync.join(0.2)
            assert psync.is_alive(), \
                "acked before the standby's journal"
            journal.release.set()
            psync.join(5.0)
            assert not psync.is_alive(), \
                "the ack waited for the home write"
            assert home.entered.wait(5.0)
            for image in images:
                shutil.copytree(tmp_path / "standby", image)
        finally:
            journal.release.set()
            home.release.set()

        assert PmoStore(images[0]).load_all().journals_applied == 1
        promoted = StandbyDaemon(images[1])
        try:
            with SyncTerpClient(port=promoted.promote(0)) as reader:
                reader.attach("p")
                observed = {"p": reader.read(oid, 1)[0]}
            report = check_acked_writes(observed, {"p": 2})
            assert report.ok, report.describe()
        finally:
            promoted.stop()
        shipper.stop()
        store.close()

    def test_promotion_waits_for_an_apply_in_flight(
            self, tmp_path, standby, monkeypatch):
        """``promote`` must not start recovery's rescan under a home
        write: it waits for the applier's lock, and an apply that
        arrives after it raises without acking."""
        store, shipper, lib, pmo, oid = make_primary(
            tmp_path, standby.bound_port)
        settled(standby)                  # the stall is for batch 2
        home = Stall(applier_module.write_home)
        monkeypatch.setattr(applier_module, "write_home", home)
        commit(lib, pmo, oid, 2)          # acked; its home write stalls
        ports = []
        promotion = threading.Thread(
            target=lambda: ports.append(standby.promote(0)))
        try:
            assert home.entered.wait(5.0)
            promotion.start()
            promotion.join(0.3)
            assert promotion.is_alive() and not standby.promoted, \
                "promoted under an apply in flight"
        finally:
            home.release.set()
        promotion.join(10.0)
        assert ports and standby.promoted

        acks = []
        with pytest.raises(ReplicationChainError, match="closed"):
            standby.applier.apply_batch(
                "p", 9, -1, [[0, zlib.crc32(bytes(PAGE_SIZE))]],
                bytes(PAGE_SIZE), acked=lambda: acks.append(9))
        assert acks == []
        service = standby.service_thread.service
        assert service.recovery_report.pmos_quarantined == []
        with SyncTerpClient(port=ports[0]) as reader:
            reader.attach("p")
            assert reader.read(oid, 512) == bytes([2]) * 512
        shipper.stop()
        store.close()


class TestStandbyConnections:
    def test_finished_connections_are_forgotten(self, standby):
        """Every shipper reconnect and every ``promote`` control
        connection used to leave a socket and a thread object behind
        until ``stop()``."""
        before = len(standby._conns)
        for _ in range(50):
            with socket.create_connection(
                    ("127.0.0.1", standby.bound_port),
                    timeout=5.0) as sock:
                send_msg(sock, {"t": "hello",
                                "version": REPL_PROTOCOL_VERSION})
                assert recv_msg(sock)[0]["t"] == "hello-ack"
        # Each serve thread deregisters once it has seen its EOF.
        wait_for(lambda: len(standby._conns) == before)
        assert before == 0


class TestCrcBudget:
    def test_each_page_is_crcd_once_per_side(self, tmp_path, standby,
                                             monkeypatch):
        """Journal writer, home writer and frame share one CRC32 per
        page on the primary; the standby's frame check is the one its
        two writers store (ROADMAP item 1's "pages CRC'd per psync":
        3 → 1 per side)."""
        store, shipper, lib, pmo, oid = make_primary(
            tmp_path, standby.bound_port)
        applied = settled(standby)["pages_applied"]
        by_thread = collections.Counter()
        real = zlib.crc32

        def counting(data, *args):
            if len(data) == PAGE_SIZE:
                by_thread[threading.current_thread().name] += 1
            return real(data, *args)

        monkeypatch.setattr(zlib, "crc32", counting)
        with lib.thread(1):
            lib.write(oid, b"\x05" * (8 * PAGE_SIZE))
            lib.psync(pmo)
        pages = settled(standby)["pages_applied"] - applied
        monkeypatch.undo()
        assert pages >= 8
        assert by_thread == {"terp-group-commit": pages,
                             "terp-standby-conn": pages}
        shipper.stop()
        store.close()


def test_sigkill_right_after_an_attach_still_mirrors_it(tmp_path):
    """(f) Real processes.  An ``attach`` record no psync follows sits
    corked in the primary's kernel send queue; SIGKILL closes the
    socket, which sends it.  The promoted standby finds the attach in
    its mirrored journal and force-detaches it with the outage
    attribution."""
    standby = Proc("repro.replication",
                   ["--pool-dir", str(tmp_path / "standby"),
                    "--listen-port", "0"])
    primary = None
    try:
        repl_port = standby.ready()
        primary = Proc("repro.service",
                       ["--port", "0",
                        "--pool-dir", str(tmp_path / "primary"),
                        "--replicate-to", f"127.0.0.1:{repl_port}"])
        port = primary.ready()
        client = SyncTerpClient(port=port, user="alice").connect()
        client.create("held", MIB)
        client.attach("held")
        primary.sigkill()
        client.close()
        mirrored = tmp_path / "standby" / "sessions.journal"
        wait_for(lambda: '"rec":"attach"' in mirrored.read_text())
        with SyncTerpClient(port=promote("127.0.0.1", repl_port, 0),
                            user="bob") as bob:
            events = bob.call("trace", limit=65536)["audit"]
        forced = [e for e in events if e.get("kind") == "forced-detach"
                  and e.get("pmo") == "held"]
        assert forced, f"attach never reached the standby: {events}"
        assert any(word in str(forced[0].get("reason"))
                   for word in ("outage", "restart"))
    finally:
        for proc in (primary, standby):
            if proc is not None:
                proc.stop()
