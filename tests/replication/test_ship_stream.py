"""The shipped stream at the source: GroupCommitter batch boundaries.

A recording fake shipper stands in for the network: the contract
under test is the two-part ship hook — every group-commit batch is
handed to ``send_commit`` exactly once, *at* its journal fsync (the
journal is committed on disk, the home slots are not yet written, no
store lock is held), and what that returned to ``await_commit`` after
the home fsync and before the commit ticket retires; per-PMO seqs are
strictly monotone (gapless as a chain of ``(prev, seq]`` ranges, with
merged commits legitimately skipping integers); and the abort/drain
shutdown paths never corrupt the stream.
"""

import threading
import time

import pytest

from repro.core.errors import PmoError
from repro.core.units import MIB
from repro.faults.plan import FaultPlan, FaultRule
from repro.pmo.api import PmoLibrary
from repro.pmo.store import PmoStore, page_crcs, read_journal


class RecordingShipper:
    """Records every hook call the store makes, thread-safely, and
    what the pool directory looked like at each half of a commit."""

    def __init__(self, store):
        self.store = store
        self.lock = threading.Lock()
        self.commits = []          # (name, pmo_id, seq, [indexes])
        self.awaited = []          # (name, seq)
        self.observed = []         # (half, journal indexes, home indexes)
        self.headers = []          # names
        self.destroys = []         # names

    def _observe(self, half, name):
        """The PMO's committed journal and the page slots home on
        disk.  Asked from another thread, which either store lock
        would block were the calling flusher still holding it: the
        home pages then read None."""
        home = []
        asker = threading.Thread(target=lambda: home.append(
            self.store.present_pages(name)), daemon=True)
        asker.start()
        asker.join(5.0)
        journal = read_journal(self.store.journal_path_for(name))
        self.observed.append((half, journal and [i for i, _ in journal[0]],
                              home[0] if home else None))

    def send_commit(self, name, pmo_id, seq, pages, crcs):
        assert crcs == page_crcs(pages)
        self._observe("send", name)
        with self.lock:
            self.commits.append(
                (name, pmo_id, seq, [i for i, _ in pages]))
        return seq

    def await_commit(self, name, seq):
        self._observe("await", name)
        with self.lock:
            self.awaited.append((name, seq))

    def ship_header(self, name, header):
        with self.lock:
            self.headers.append(name)

    def ship_destroy(self, name):
        with self.lock:
            self.destroys.append(name)

    def per_pmo(self, name):
        with self.lock:
            return [(seq, idxs) for n, _, seq, idxs in self.commits
                    if n == name]


def make(tmp_path, *, interval_us=0, rules=()):
    plan = FaultPlan(seed=1, rules=list(rules)) if rules else None
    store = PmoStore(tmp_path, faults=plan,
                     commit_interval_us=interval_us)
    shipper = RecordingShipper(store)
    store.shipper = shipper
    lib = PmoLibrary(store=store)
    return store, lib, shipper


def assert_monotone(stream):
    seqs = [seq for seq, _ in stream]
    assert seqs == sorted(seqs)
    assert len(seqs) == len(set(seqs)), f"duplicate seq in {seqs}"


class TestShipHook:
    def test_register_ships_header_before_first_batch(self, tmp_path):
        store, lib, shipper = make(tmp_path)
        pmo = lib.PMO_create("h", MIB)
        assert shipper.headers == ["h"]
        assert shipper.commits == []
        store.close()

    def test_commit_ships_once_before_psync_returns(self, tmp_path):
        store, lib, shipper = make(tmp_path)
        pmo = lib.PMO_create("one", MIB)
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 64)
            lib.write(oid, b"payload")
            lib.psync(pmo)
            # Both halves ran before the ticket retired: by the time
            # psync returned, the batch is recorded and awaited.
            stream = shipper.per_pmo("one")
            assert len(stream) == 1
            flush_seq = store.committed_state("one")[1]
            assert stream[0][0] == flush_seq
            assert shipper.awaited == [("one", flush_seq)]
            lib.detach(pmo)
        store.close()

    def test_send_at_the_journal_fsync_await_after_the_home_fsync(
            self, tmp_path):
        """The commit order, seen from the hook: ``send_commit`` finds
        the batch's committed journal on disk and no slot home yet;
        ``await_commit`` finds the slots home and the journal retired;
        neither runs under a store lock (the shipper takes its send
        lock inside both, and the documented order is send lock
        *before* store locks)."""
        store, lib, shipper = make(tmp_path)
        pmo = lib.PMO_create("order", MIB)
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 64)
            lib.write(oid, b"ordered")
            lib.psync(pmo)
            lib.detach(pmo)
        journal = shipper.observed[0][1]
        assert journal, "shipped before the journal was committed"
        assert shipper.observed == [("send", journal, []),
                                    ("await", None, journal)]
        store.close()

    def test_destroy_ships_destroy(self, tmp_path):
        store, lib, shipper = make(tmp_path)
        lib.PMO_create("gone", MIB)
        store.destroy("gone")
        assert shipper.destroys == ["gone"]
        store.close()


class TestConcurrentPsyncStream:
    def test_stream_monotone_and_complete_under_concurrency(
            self, tmp_path):
        """N writer threads psync two PMOs through a nonzero commit
        window: per-PMO shipped seqs stay strictly monotone, every
        final durable seq is shipped, and each batch's page set is
        sorted and non-empty."""
        store, lib, shipper = make(tmp_path, interval_us=500)
        pmos = {name: lib.PMO_create(name, MIB)
                for name in ("s-a", "s-b")}
        oids = {}
        with lib.thread(99):
            for name, pmo in pmos.items():
                lib.attach(pmo)
                oids[name] = [lib.pmalloc(pmo, 4096)
                              for _ in range(4)]

        def writer(tid, name, slot):
            pmo = pmos[name]
            with lib.thread(tid):
                lib.attach(pmo)
                for r in range(12):
                    lib.write(oids[name][slot],
                              bytes([tid]) * 64 + bytes([r]))
                    lib.psync(pmo)
                lib.detach(pmo)

        threads = [
            threading.Thread(target=writer,
                             args=(tid, name, slot))
            for tid, (name, slot) in enumerate(
                [("s-a", 0), ("s-a", 1), ("s-b", 0), ("s-b", 1)],
                start=1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        for name in pmos:
            stream = shipper.per_pmo(name)
            assert stream, f"nothing shipped for {name}"
            assert_monotone(stream)
            for seq, idxs in stream:
                assert idxs == sorted(idxs) and idxs
            # The chain head equals the durable flush_seq: nothing
            # committed went unshipped.
            assert stream[-1][0] == store.committed_state(name)[1]
            # Merging (batch < submissions) is legal; losing commits
            # is not: every commit the committer performed for this
            # PMO shipped exactly once.
        assert store.committer.submitted >= len(shipper.commits)
        store.close()


class TestShutdownPaths:
    def test_drain_ships_everything_queued(self, tmp_path):
        """close() drains: every queued snapshot commits and ships
        before the flusher exits."""
        store, lib, shipper = make(tmp_path, interval_us=20_000)
        pmo = lib.PMO_create("drain", MIB)
        tickets = []
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 4096)
            for r in range(5):
                lib.write(oid, bytes([r]) * 128)
                _, ticket = lib.psync_submit(pmo)
                if ticket is not None:
                    tickets.append(ticket)
        store.close()
        assert tickets
        for ticket in tickets:
            assert ticket.done
            ticket.wait(timeout=0.0)      # completed, not failed
        stream = shipper.per_pmo("drain")
        assert_monotone(stream)
        assert stream[-1][0] == store.committed_state("drain")[1]

    def test_abort_drops_unflushed_but_keeps_stream_consistent(
            self, tmp_path):
        """abort_commits() on the crash path: queued snapshots fail
        (their psyncs never promised durability), nothing ships after
        the abort, and what did ship is still a monotone prefix."""
        stall = FaultRule("store.commit_stall", "stall",
                          probability=1.0, count=1,
                          delay_ns=150_000_000)
        store, lib, shipper = make(tmp_path, rules=[stall])
        pmo = lib.PMO_create("abort", MIB)
        tickets = []
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 4096)
            # First submission occupies the flusher inside the
            # injected stall; the rest queue up behind it.
            for r in range(4):
                lib.write(oid, bytes([r + 1]) * 128)
                _, ticket = lib.psync_submit(pmo)
                if ticket is not None:
                    tickets.append(ticket)
                time.sleep(0.01)
        store.abort_commits()
        shipped_at_abort = len(shipper.commits)
        failed = 0
        for ticket in tickets:
            try:
                ticket.wait(timeout=1.0)
            except PmoError:
                failed += 1
        # The stall guarantees at least one snapshot was still queued
        # when the abort landed: its psync must have typed-failed.
        assert failed >= 1
        stream = shipper.per_pmo("abort")
        assert_monotone(stream)
        time.sleep(0.05)
        assert len(shipper.commits) == shipped_at_abort
        # A post-abort submission is refused, not silently dropped.
        with lib.thread(2):
            lib.attach(pmo)
            lib.write(oid, b"late")
            with pytest.raises(PmoError):
                lib.psync(pmo)
