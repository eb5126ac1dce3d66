"""The durable pool backend: format, flush, repair, scrub, quarantine."""

import os
import sys
import threading

import pytest

from repro.core.errors import IntegrityError, PmoError, TornPageError
from repro.core.permissions import Access
from repro.core.units import MIB, PAGE_SIZE
from repro.faults.plan import FaultPlan, FaultRule
from repro.pmo.api import PmoLibrary
from repro.pmo.store import (
    CommitTicket, DurablePages, PmoStore, SCRUB_PAGES_PER_PASS)


def make(tmp_path, *rules, seed=1):
    plan = FaultPlan(seed=seed, rules=list(rules)) if rules else None
    store = PmoStore(tmp_path, faults=plan)
    lib = PmoLibrary(store=store)
    return store, lib


def populate(lib, name, payload=b"A" * 4000):
    """Create, allocate, write, psync, detach: one committed PMO."""
    pmo = lib.PMO_create(name, MIB)
    with lib.thread(1):
        lib.attach(pmo)
        oid = lib.pmalloc(pmo, max(len(payload), 16))
        lib.write(oid, payload)
        lib.psync(pmo)
        lib.detach(pmo)
    return pmo, oid


def torn_data_page_rule():
    """Tear the second page of the flush batch — the heap data page,
    whose second half actually changed (a torn header page is
    indistinguishable from intact when its tail is still zeros)."""
    return FaultRule(site="store.torn_page", kind="torn",
                     count=1, after=1)


class TestDurablePages:
    def test_write_marks_touched_pages(self):
        pages = DurablePages(MIB)
        pages.write(0, b"x")
        pages.write(PAGE_SIZE - 1, b"ab")        # straddles 0/1
        pages.write(5 * PAGE_SIZE + 7, b"y" * PAGE_SIZE)
        assert pages.dirty == {0, 1, 5, 6}

    def test_empty_write_marks_nothing_extra(self):
        pages = DurablePages(MIB)
        pages.write(3 * PAGE_SIZE, b"")
        assert pages.dirty == {3}  # a degenerate touch, single page

    def test_reads_do_not_dirty(self):
        pages = DurablePages(MIB)
        pages.read(0, PAGE_SIZE)
        assert pages.dirty == set()


class TestFormatAndLifecycle:
    def test_create_writes_header_file(self, tmp_path):
        store, lib = make(tmp_path)
        lib.PMO_create("alpha", MIB)
        path = store.path_for("alpha")
        assert path.exists()
        assert path.read_bytes()[:8] == b"TERPDUR1"

    def test_filenames_safe_and_collision_free(self, tmp_path):
        store, _ = make(tmp_path)
        a = store.path_for("a/b c")
        b = store.path_for("a_b_c")
        assert a.name != b.name          # sha1 suffix disambiguates
        assert "/" not in a.name and " " not in a.name

    def test_reload_preserves_identity(self, tmp_path):
        store, lib = make(tmp_path)
        pmo, oid = populate(lib, "ident")
        fresh = PmoStore(tmp_path)
        report = fresh.load_all()
        assert report.to_dict()["loaded"] == ["ident"]
        loaded = report.loaded[0]
        assert loaded.pmo_id == pmo.pmo_id
        assert loaded.owner == pmo.owner
        assert loaded.mode == pmo.mode
        assert loaded.size_bytes == pmo.size_bytes

    def test_reload_preserves_data(self, tmp_path):
        store, lib = make(tmp_path)
        _, oid = populate(lib, "data", b"B" * 4000)
        fresh = PmoStore(tmp_path)
        report = fresh.load_all()
        lib2 = PmoLibrary(store=fresh)
        lib2.manager.adopt(report.loaded[0])
        with lib2.thread(1):
            lib2.attach(report.loaded[0])
            assert lib2.read(oid, 4000) == b"B" * 4000
            lib2.detach(report.loaded[0])

    def test_destroy_removes_files(self, tmp_path):
        store, lib = make(tmp_path)
        lib.PMO_create("gone", MIB)
        assert store.path_for("gone").exists()
        lib.PMO_destroy("gone")
        assert not store.path_for("gone").exists()
        assert not store.journal_path_for("gone").exists()

    def test_rotted_header_denies_that_file_only(self, tmp_path):
        """One bad byte in a header's name used to escape ``load_all``
        as a ``UnicodeDecodeError`` and take the whole pool with it."""
        store, lib = make(tmp_path)
        populate(lib, "intact")
        populate(lib, "rotted")
        path = store.path_for("rotted")
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"rotted")] = 0xFF         # no UTF-8 starts so
        path.write_bytes(raw)
        report = PmoStore(tmp_path).load_all()
        assert [pmo.name for pmo in report.loaded] == ["intact"]
        (denied, reason), = report.denied
        assert denied == path.name and "header" in reason

    def test_register_requires_durable_storage(self, tmp_path):
        from repro.pmo.pmo import Pmo
        store, _ = make(tmp_path)
        plain = Pmo(1, "plain", MIB)     # default SparseBytes
        with pytest.raises(PmoError):
            store.register(plain)


class TestFlushAndPsync:
    def test_psync_returns_true_flushed_count(self, tmp_path):
        store, lib = make(tmp_path)
        pmo = lib.PMO_create("count", MIB)
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 2 * PAGE_SIZE)
            lib.write(oid, b"C" * (2 * PAGE_SIZE))
            flushed = lib.psync(pmo)
            # header/heap-metadata page + log pages + 2-3 data pages
            # (the payload may straddle a page boundary)
            assert flushed >= 3
            # Everything clean now: nothing left to flush.
            assert lib.psync(pmo) == 0
            lib.write(oid, b"D")
            assert lib.psync(pmo) == 1
            lib.detach(pmo)

    def test_memory_backend_psync_still_zero(self):
        lib = PmoLibrary()               # no store: PR-1 behavior
        pmo = lib.PMO_create("mem", MIB)
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 64)
            lib.write(oid, b"x" * 64)
            assert lib.psync(pmo) == 0
            lib.detach(pmo)

    def test_flush_is_idempotent_per_batch(self, tmp_path):
        store, lib = make(tmp_path)
        pmo, _ = populate(lib, "idem")
        assert store.flush(pmo) == 0     # dirty set cleared by psync
        assert not store.journal_path_for("idem").exists()

    def test_unregistered_flush_rejected(self, tmp_path):
        store, lib = make(tmp_path)
        pmo, _ = populate(lib, "x")
        store.unregister("x")
        with pytest.raises(PmoError):
            store.flush(pmo)


class TestJournalRepair:
    def test_torn_page_repaired_at_load(self, tmp_path):
        store, lib = make(tmp_path, torn_data_page_rule())
        _, oid = populate(lib, "torn")
        assert store.journal_path_for("torn").exists()
        fresh = PmoStore(tmp_path)
        report = fresh.load_all()
        assert report.pages_repaired >= 1
        assert report.journals_applied == 1
        assert not report.quarantined and not report.denied
        # The journal is retired once applied.
        assert not fresh.journal_path_for("torn").exists()
        lib2 = PmoLibrary(store=fresh)
        lib2.manager.adopt(report.loaded[0])
        with lib2.thread(1):
            lib2.attach(report.loaded[0])
            assert lib2.read(oid, 4000) == b"A" * 4000
            lib2.detach(report.loaded[0])

    def test_pending_journal_healed_before_next_flush(self, tmp_path):
        """A kept journal (torn flush) must be applied before the next
        flush replaces it, or the torn page loses its repair source."""
        store, lib = make(tmp_path, torn_data_page_rule())
        pmo = lib.PMO_create("heal", MIB)
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 4096)
            lib.write(oid, b"E" * 4000)
            lib.psync(pmo)               # torn: journal kept
            assert store.journal_path_for("heal").exists()
            oid2 = lib.pmalloc(pmo, 4096)
            lib.write(oid2, b"F" * 4000)
            lib.psync(pmo)               # clean: journal retired
            lib.detach(pmo)
        assert not store.journal_path_for("heal").exists()
        fresh = PmoStore(tmp_path)
        report = fresh.load_all()
        assert not report.quarantined and not report.denied
        lib2 = PmoLibrary(store=fresh)
        lib2.manager.adopt(report.loaded[0])
        with lib2.thread(1):
            lib2.attach(report.loaded[0])
            assert lib2.read(oid, 4000) == b"E" * 4000
            assert lib2.read(oid2, 4000) == b"F" * 4000
            lib2.detach(report.loaded[0])

    def test_truncated_journal_never_applied(self, tmp_path):
        """A journal torn before its commit record is unusable; the
        home file (untouched by that batch) stays authoritative."""
        store, lib = make(tmp_path)
        populate(lib, "trunc")
        jp = store.journal_path_for("trunc")
        jp.write_bytes(b"TERPJRN1" + b"\x00" * 40)  # headerish garbage
        fresh = PmoStore(tmp_path)
        report = fresh.load_all()
        assert report.journals_applied == 0
        assert not report.quarantined and not report.denied

    def test_verify_page_norepair_raises_torn(self, tmp_path):
        store, lib = make(tmp_path, torn_data_page_rule())
        populate(lib, "typed")
        # Find the torn page: the one whose CRC fails.
        torn = None
        for index in store.present_pages("typed"):
            try:
                store.verify_page("typed", index, repair=False)
            except TornPageError as exc:
                torn = index
                assert exc.pmo == "typed"
                assert exc.page_index == index
        assert torn is not None


class TestBitRotQuarantine:
    def test_rot_quarantined_at_load(self, tmp_path):
        store, lib = make(
            tmp_path, FaultRule(site="store.bit_rot", kind="rot",
                                count=1, after=1))
        _, oid = populate(lib, "rot")
        fresh = PmoStore(tmp_path)
        report = fresh.load_all()
        assert len(report.quarantined) == 1
        name, reason = report.quarantined[0]
        assert name == "rot" and "bit rot" in reason
        pmo = report.loaded[0]
        assert pmo.quarantined
        lib2 = PmoLibrary(store=fresh)
        lib2.manager.adopt(pmo)
        with lib2.thread(1):
            with pytest.raises(IntegrityError):
                lib2.attach(pmo)                 # write access denied
            lib2.attach(pmo, Access.READ)        # read-only allowed
            with pytest.raises(IntegrityError):
                lib2.psync(pmo)                  # flush denied too
            lib2.detach(pmo)

    def test_rotted_header_page_becomes_readonly_shell(self, tmp_path):
        """Rot on page 0 breaks even log replay: the PMO loads as a
        quarantined shell (bytes readable, recovery skipped)."""
        store, lib = make(
            tmp_path, FaultRule(site="store.bit_rot", kind="rot",
                                count=1))        # first page = page 0
        populate(lib, "shell")
        fresh = PmoStore(tmp_path)
        report = fresh.load_all()
        assert len(report.quarantined) == 1
        pmo = report.loaded[0]
        assert pmo.quarantined
        assert "recovery skipped" in pmo.quarantine_reason

    def test_live_scrub_quarantines_rot(self, tmp_path):
        store, lib = make(
            tmp_path, FaultRule(site="store.bit_rot", kind="rot",
                                count=1, after=1))
        pmo, _ = populate(lib, "decay")
        pmo.storage._pages.clear()       # no resident copy to heal from
        result = store.scrub(64)
        assert result["quarantined"] == 1
        assert pmo.quarantined

    def test_live_scrub_heals_rot_from_memory(self, tmp_path):
        """While the PMO is resident its in-memory pages are a valid
        repair source — rot under a live daemon self-heals."""
        store, lib = make(
            tmp_path, FaultRule(site="store.bit_rot", kind="rot",
                                count=1, after=1))
        pmo, _ = populate(lib, "selfheal")
        result = store.scrub(64)
        assert result["repaired"] == 1
        assert not pmo.quarantined
        assert store.scrub(64)["repaired"] == 0


class TestScrub:
    def test_scrub_repairs_torn_page(self, tmp_path):
        store, lib = make(tmp_path, torn_data_page_rule())
        populate(lib, "scrubme")
        result = store.scrub(64)
        assert result["repaired"] == 1
        again = store.scrub(64)
        assert again["repaired"] == 0 and again["quarantined"] == 0

    def test_scrub_budget_bounded(self, tmp_path):
        store, lib = make(tmp_path)
        populate(lib, "big", b"G" * (20 * PAGE_SIZE))
        result = store.scrub(4)
        assert result["verified"] <= 4

    def test_scrub_round_robins_over_pmos(self, tmp_path):
        store, lib = make(tmp_path)
        populate(lib, "one")
        populate(lib, "two")
        verified = []
        orig = store.verify_page
        store.verify_page = (            # type: ignore[method-assign]
            lambda name, index, **kw: (verified.append(name),
                                       orig(name, index, **kw))[1])
        store.scrub(2)
        store.scrub(2)
        assert {"one", "two"} <= set(verified)

    def test_scrub_default_budget(self, tmp_path):
        store, lib = make(tmp_path)
        populate(lib, "def", b"H" * (20 * PAGE_SIZE))
        assert store.scrub()["verified"] <= SCRUB_PAGES_PER_PASS

    def test_empty_store_scrub_is_noop(self, tmp_path):
        store = PmoStore(tmp_path)
        assert store.scrub() == {"verified": 0, "repaired": 0,
                                 "quarantined": 0}


class TestTransactionalPsync:
    def test_tx_commit_then_flush_counts_both(self, tmp_path):
        store, lib = make(tmp_path)
        pmo = lib.PMO_create("tx", MIB)
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 64)
            lib.psync(pmo)               # settle allocation metadata
            pmo.begin_tx()
            lib.write(oid, b"I" * 64)
            flushed = lib.psync(pmo)     # commits + flushes
            assert flushed >= 1
            lib.detach(pmo)
        fresh = PmoStore(tmp_path)
        report = fresh.load_all()
        lib2 = PmoLibrary(store=fresh)
        lib2.manager.adopt(report.loaded[0])
        with lib2.thread(1):
            lib2.attach(report.loaded[0])
            assert lib2.read(oid, 64) == b"I" * 64
            lib2.detach(report.loaded[0])


class TestGroupCommit:
    def test_zero_dirty_psync_never_touches_the_store(self, tmp_path):
        store, lib = make(tmp_path)
        pmo, _ = populate(lib, "zero")
        path = store.path_for("zero")
        before = (path.stat().st_mtime_ns,
                  store.committer.submitted)
        with lib.thread(1):
            lib.attach(pmo)
            # Nothing dirty: the fast path returns without a journal
            # round-trip, a file write, or a committer submission.
            assert lib.psync(pmo) == 0
            lib.detach(pmo)
        assert (path.stat().st_mtime_ns,
                store.committer.submitted) == before
        assert not store.journal_path_for("zero").exists()

    def test_concurrent_psyncs_share_one_commit_batch(self, tmp_path):
        # A wide commit window: the first snapshot's leader waits for
        # the second before paying the fsyncs, so both psyncs retire
        # from a single merged batch (one journal write per PMO).
        store = PmoStore(tmp_path, commit_interval_us=200_000)
        lib = PmoLibrary(store=store)
        pmo = lib.PMO_create("merge", MIB)
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 2 * PAGE_SIZE)
            lib.write(oid, b"A" * PAGE_SIZE)
            first = store.flush_async(pmo)
            pmo.storage.write(oid.offset, b"B" * PAGE_SIZE)
            second = store.flush_async(pmo)
            assert first.wait() >= 1
            assert second.wait() >= 1
            lib.detach(pmo)
        assert store.committer.submitted == 2
        assert store.committer.batches == 1
        # The later snapshot supersedes within the merged batch.
        fresh = PmoStore(tmp_path)
        report = fresh.load_all()
        lib2 = PmoLibrary(store=fresh)
        lib2.manager.adopt(report.loaded[0])
        with lib2.thread(1):
            lib2.attach(report.loaded[0])
            assert lib2.read(oid, PAGE_SIZE) == b"B" * PAGE_SIZE
            lib2.detach(report.loaded[0])

    def test_committed_state_reports_the_seq_on_media(self, tmp_path):
        # A snapshot claims its seq at once but reaches media later;
        # what a replication bootstrap reads must carry the seq of
        # the bytes it read, or the queued batch would be skipped as
        # "already covered".
        store, lib = make(tmp_path)
        pmo, oid = populate(lib, "seq")
        on_media = store.committed_state("seq")[1]
        pmo.storage.write(oid.offset, b"queued")
        _, claimed, pages = store._snapshot(pmo)
        assert claimed == on_media + 1
        assert store.committed_state("seq")[1] == on_media
        store.committer.submit(store._entries["seq"], claimed,
                               pages).wait()
        assert store.committed_state("seq")[1] == claimed

    def test_sync_flush_routes_through_the_committer(self, tmp_path):
        store, lib = make(tmp_path)
        populate(lib, "route")
        assert store.committer.submitted >= 1
        assert store.committer.batches >= 1

    def test_closed_committer_fails_flushes_typed(self, tmp_path):
        store, lib = make(tmp_path)
        pmo, oid = populate(lib, "closed")
        store.close()
        pmo.storage.write(oid.offset, b"late")
        with pytest.raises(PmoError, match="stopped"):
            store.flush(pmo)

    def test_abort_fails_flushes_like_a_crash(self, tmp_path):
        store, lib = make(tmp_path)
        pmo, oid = populate(lib, "dead")
        store.abort_commits()
        pmo.storage.write(oid.offset, b"lost")
        with pytest.raises(PmoError):
            store.flush(pmo)


class TestTicketCallbacks:
    def test_runs_on_the_retiring_thread(self, tmp_path):
        store = PmoStore(tmp_path, commit_interval_us=50_000)
        lib = PmoLibrary(store=store)
        pmo = lib.PMO_create("cb", MIB)
        with lib.thread(1):
            lib.attach(pmo)
            lib.write(lib.pmalloc(pmo, 64), b"C" * 64)
            lib.detach(pmo)
        ticket = store.flush_async(pmo)     # the 50 ms window is open
        seen = []
        called = threading.Event()

        def note(retired):
            seen.append((threading.current_thread().name,
                         retired.wait(0)))
            called.set()

        ticket.add_done_callback(note)
        assert called.wait(5.0)
        assert seen == [("terp-group-commit", ticket.wait(0))]
        assert ticket.wait(0) >= 1
        store.close()

    def test_registered_after_retirement_runs_at_once(self):
        ticket = CommitTicket()
        ticket.complete(3)
        seen = []
        ticket.add_done_callback(seen.append)
        assert seen == [ticket]

    def test_failure_is_delivered(self):
        ticket = CommitTicket()
        seen = []
        ticket.add_done_callback(seen.append)
        ticket.fail(PmoError("batch failed"))
        assert seen == [ticket]
        with pytest.raises(PmoError, match="batch failed"):
            ticket.wait(0)

    def test_exactly_once_under_a_register_retire_race(self):
        # Four registering threads against the retiring one, more
        # threads than cores, switching as often as the interpreter
        # allows: a callback lost or run twice breaks the count.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                ticket = CommitTicket()
                calls = []
                start = threading.Barrier(5)

                def register():
                    start.wait()
                    for _ in range(8):
                        ticket.add_done_callback(calls.append)

                def retire():
                    start.wait()
                    ticket.complete(1)

                threads = [threading.Thread(target=register)
                           for _ in range(4)]
                threads.append(threading.Thread(target=retire))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(5.0)
                    assert not thread.is_alive()
                assert calls == [ticket] * 32
        finally:
            sys.setswitchinterval(interval)
