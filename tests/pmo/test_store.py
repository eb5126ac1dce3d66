"""The durable pool backend: format, flush, repair, scrub, quarantine."""

import gc
import sys
import threading
import time
import tracemalloc
import types

import pytest

import repro.pmo.store as store_module
from repro.core.errors import IntegrityError, PmoError
from repro.core.permissions import Access
from repro.core.units import KIB, MIB, PAGE_SIZE
from repro.faults.plan import FaultPlan, FaultRule
from repro.pmo.api import PmoLibrary
from repro.pmo.pmo import Pmo
from repro.pmo.store import (
    HEADER_SPAN, SCRUB_PAGES_PER_PASS, SLOT_SIZE, TRAILER, CommitTicket,
    DurablePages, PmoStore, pack_header, page_crcs, read_journal,
    read_slots, write_header, write_home)


def zero_trailer(path, index):
    """Zero slot ``index``'s CRC trailer, marker included."""
    with open(path, "r+b") as fh:
        fh.seek(HEADER_SPAN + index * SLOT_SIZE + PAGE_SIZE)
        fh.write(bytes(TRAILER.size))


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


def reachable_ids(roots):
    """The ids of every object reachable from ``roots`` through
    instances and containers (not through classes, functions or
    modules)."""
    seen, stack = set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (
                type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return seen


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

    def test_scrub_repairs_a_torn_page_from_its_journal(self, tmp_path):
        """The sweeper's pass finds the torn slot at its index and
        rewrites it from the journal — the only source left once the
        resident copy is gone."""
        store, lib = make(tmp_path, torn_data_page_rule())
        pmo, _ = populate(lib, "typed")
        path = store.path_for("typed")

        def slots():
            return {index: (bytes(page), crc)
                    for index, page, crc in read_slots(path.read_bytes())}

        torn, = [index for index, (page, crc) in slots().items()
                 if page_crcs([(index, page)]) != [crc]]
        good = dict(read_journal(store.journal_path_for("typed"))[0])[torn]
        pmo.storage._pages.clear()
        result = store.scrub(64)
        assert result["repaired"] == 1 and result["quarantined"] == 0
        page, crc = slots()[torn]
        assert page == good and page_crcs([(torn, page)]) == [crc]
        assert not pmo.quarantined


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
        orig = store._check_slot
        store._check_slot = (            # type: ignore[method-assign]
            lambda entry, *rest: (verified.append(entry.pmo.name),
                                  orig(entry, *rest))[1])
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

    def test_a_written_slot_that_lost_its_marker_is_damage(self, tmp_path):
        """A flushed page whose trailer was zeroed reads as a hole, and
        the slot index knows it was written: while the PMO is resident
        the page is healed from memory; with no repair source the PMO
        is quarantined — never counted as a verified absent page."""
        store, lib = make(tmp_path)
        pmo, _ = populate(lib, "unmarked")
        path = store.path_for("unmarked")
        index = store.present_pages("unmarked")[-1]
        zero_trailer(path, index)
        assert store.scrub(64)["repaired"] == 1      # from memory
        assert index in [i for i, _, _ in read_slots(path.read_bytes())]
        zero_trailer(path, index)
        pmo.storage._pages.clear()
        assert store.scrub(64)["quarantined"] == 1
        assert pmo.quarantined and "lost its marker" in \
            pmo.quarantine_reason

    def test_index_reads_race_the_flusher(self, tmp_path):
        """``present_pages`` reads the slot index without the I/O lock
        while the flusher grows and marks it: with the switch interval
        at 1 µs and more threads than cores, every read is sorted and
        duplicate-free, no reader sees a slot vanish, and the last read
        equals the home file."""
        store = PmoStore(tmp_path, fsync=False, commit_interval_us=0)
        pmo = Pmo(1, "race", MIB, log_size=PAGE_SIZE,
                  storage=DurablePages(MIB))
        store.register(pmo)
        done = threading.Event()
        bad = []

        def reader():
            seen = []
            while not done.is_set():
                now = store.present_pages("race")
                if now != sorted(set(now)) or not set(seen) <= set(now):
                    bad.append((seen, now))
                seen = now

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=reader) for _ in range(3)]
        try:
            for thread in readers:
                thread.start()
            for index in range(MIB // PAGE_SIZE):    # grows the column
                pmo.storage.write((index + 1) * PAGE_SIZE - 1, b"\x01")
                store.flush(pmo)
        finally:
            done.set()
            sys.setswitchinterval(interval)
            for thread in readers:
                thread.join(5.0)
        assert not any(thread.is_alive() for thread in readers)
        assert not bad, bad[0]
        path = store.path_for("race")
        assert store.present_pages("race") == \
            [i for i, _, _ in read_slots(path.read_bytes())] == \
            list(range(MIB // PAGE_SIZE))
        store.close()

    def test_one_pass_costs_its_budget_not_the_pmo(self, tmp_path,
                                                   monkeypatch):
        """One ``scrub(8)`` over a fully written 64 MiB PMO: one open
        of its home file and a few KiB allocated, where reading the
        file to find its slots allocated all 64 MiB of it."""
        store = PmoStore(tmp_path, fsync=False)
        size = 64 * MIB
        pmo = Pmo(1, "big", size, storage=DurablePages(size))
        path = store.path_for("big")
        write_header(path, pack_header(pmo), fsync=False)
        page = bytes(range(256)) * (PAGE_SIZE // 256)
        for first in range(0, size // PAGE_SIZE, 1024):
            batch = [(index, page) for index in range(first, first + 1024)]
            write_home(path, batch, page_crcs(batch), fsync=False)
        store.register(pmo)                  # adopts the slots on media
        assert len(store.present_pages("big")) == size // PAGE_SIZE
        opened = []
        monkeypatch.setattr(
            store_module, "open", lambda file, *a, **kw: (
                opened.append(file), open(file, *a, **kw))[1],
            raising=False)
        tracemalloc.start()
        try:
            result = store.scrub(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == {"verified": 8, "repaired": 0, "quarantined": 0}
        assert opened == [path]
        assert peak < 64 * KIB, peak


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

    def test_the_committer_keeps_no_batch_past_its_commit(self,
                                                          tmp_path):
        """Once ``flush`` has returned, no page of its batch is
        reachable from the committer's thread (at the parent of the
        same PR its loop kept the batch bound while it parked: one
        256-page psync stayed pinned, 1 MiB, until the next psync)."""
        store = PmoStore(tmp_path, commit_interval_us=0)
        pmo = Pmo(1, "pinned", MIB, storage=DurablePages(MIB))
        store.register(pmo)
        for index in range(MIB // PAGE_SIZE):
            pmo.storage.write(index * PAGE_SIZE,
                              bytes([index % 256]) * PAGE_SIZE)
        submitted = []
        submit = store.committer.submit

        def capture(entry, seq, pages):
            submitted.extend(page for _, page in pages)
            return submit(entry, seq, pages)

        store.committer.submit = capture
        assert store.flush(pmo) == MIB // PAGE_SIZE
        batch = {id(page) for page in submitted}
        deadline = time.monotonic() + 2.0
        while True:
            # The committer retires the tickets before its loop parks.
            frame = sys._current_frames()[store.committer._thread.ident]
            roots = []
            while frame is not None:
                roots.extend(frame.f_locals.values())
                frame = frame.f_back
            pinned = batch & reachable_ids(roots)
            del roots
            if not pinned or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        store.close()
        assert not pinned, f"{len(pinned)} pages of the batch pinned"


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
