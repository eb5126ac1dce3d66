"""Durable file-backed pool storage with integrity checking.

The paper's PMOs "live beyond process termination" (Section II); this
module gives the reproduction a pool backend where that is literally
true.  Each PMO owns one file in the pool directory, written with
page-granular dirty tracking behind the existing
:class:`~repro.pmo.pmo.SparseBytes` read/write interface:

* **page slots with CRC trailers** — every 4KB page is stored in a
  fixed slot followed by an 8-byte trailer (CRC32 of the page bytes +
  a presence marker), so any torn or rotted page is *detectable*;
* **double-write journal** — a flush first writes every dirty page to
  the PMO's journal file (and fsyncs it), then to the home slots, then
  retires the journal.  A crash mid-flush therefore leaves either an
  unapplied journal (home file untouched by this batch) or a complete
  journal that can *repair* any torn home page;
* **quarantine** — a page that fails verification with no journal copy
  is bit rot: the owning PMO is quarantined (readable, never writable)
  and the failure surfaces as a typed
  :class:`~repro.core.errors.IntegrityError`;
* **scrub-on-sweep** — :meth:`PmoStore.scrub` verifies a bounded
  number of at-rest pages per call; the terpd sweeper drives it so
  silent corruption is found while the daemon is alive, not at the
  next restart.

The durability point is ``psync`` (Table I): writes dirty pages in
memory, ``psync`` flushes them.  This mirrors PMDK-style durable
transactions — nothing is promised durable until the flush returns.

Data file layout (little endian)::

    header page (4096 bytes):
      magic "TERPDUR1" | u16 version | u16 pmo_id | u32 mode
      u64 size_bytes | u64 log_size | u16 name_len | u16 owner_len
      name utf-8 | owner utf-8
    page slot i at 4096 + i * 4104:
      4096 page bytes | u32 crc32 | u32 marker (0xA110C8ED)

An absent page is an all-zero slot (a filesystem hole): the marker
distinguishes "never written" from "written and must verify".

Journal file layout::

    magic "TERPJRN1" | u64 batch_seq | u32 page_count
    page_count x (u64 page_index | u32 crc32 | 4096 page bytes)
    commit: magic "JRNCMT!!" | u64 batch_seq

Each part is packed in one place and unpacked in one place, all module
functions here — the store, recovery, scrub, the replication bootstrap
and the standby's applier call them, none re-derives the layout::

    part          packs                          unpacks
    file names    home_file / journal_file       (the same two)
    header page   pack_header -> write_header    unpack_header
    page slots    write_home                     read_slots
    journal       write_journal                  read_journal
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
import threading
import time
import zlib
from concurrent import futures
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Set,
    Tuple)

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.pmo.pmo import Pmo

from repro.core.errors import IntegrityError, PmoError, TornPageError
from repro.core.units import PAGE_SIZE
from repro.pmo.pmo import SparseBytes

FILE_MAGIC = b"TERPDUR1"
JOURNAL_MAGIC = b"TERPJRN1"
JOURNAL_COMMIT = b"JRNCMT!!"
FORMAT_VERSION = 1
#: Marks a page slot as holding flushed (verifiable) bytes.
PAGE_MARKER = 0xA110C8ED

HEADER_SPAN = PAGE_SIZE
TRAILER = struct.Struct("<II")            # crc32, marker
SLOT_SIZE = PAGE_SIZE + TRAILER.size
_HEADER = struct.Struct("<8sHHIQQHH")
_JRN_HEAD = struct.Struct("<8sQI")
_JRN_PAGE = struct.Struct("<QI")
_JRN_COMMIT = struct.Struct("<8sQ")

#: Default bound on pages verified per scrub pass.
SCRUB_PAGES_PER_PASS = 8

#: Group commit window: how long the flusher thread waits for more
#: concurrent flushers to pile onto a batch before fsyncing it.
DEFAULT_COMMIT_INTERVAL_US = 200
#: Upper bound on snapshots folded into one group-commit batch.
DEFAULT_COMMIT_MAX_BATCH = 64


def _page_crc(page: bytes) -> int:
    return zlib.crc32(page) & 0xFFFFFFFF


def page_crcs(pages: List[Tuple[int, bytes]]) -> List[int]:
    """One CRC32 per page of a batch, in batch order.  Computed once
    per commit per side and handed to every consumer — the journal
    writer, the home writer and the replication frame — never
    recomputed by them."""
    crc32 = zlib.crc32
    return [crc32(page) & 0xFFFFFFFF for _, page in pages]


def _safe_filename(name: str) -> str:
    """A stable, collision-free filename for a PMO name."""
    safe = re.sub(r"[^A-Za-z0-9._-]", "_", name)[:64]
    digest = hashlib.sha1(name.encode("utf-8")).hexdigest()[:10]
    return f"{safe}-{digest}"


def home_file(root: Path, name: str) -> Path:
    """Where PMO ``name``'s durable file lives in pool ``root``."""
    return root / f"{_safe_filename(name)}.pmo"


def journal_file(root: Path, name: str) -> Path:
    """Where PMO ``name``'s journal lives while a batch is in flight."""
    return root / f"{_safe_filename(name)}.journal"


def pack_header(pmo: "Pmo") -> bytes:
    """A PMO's durable header page."""
    name = pmo.name.encode("utf-8")
    owner = pmo.owner.encode("utf-8")
    head = _HEADER.pack(FILE_MAGIC, FORMAT_VERSION, pmo.pmo_id,
                        pmo.mode, pmo.size_bytes, pmo._log_size,
                        len(name), len(owner)) + name + owner
    if len(head) > HEADER_SPAN:
        raise PmoError(f"PMO name/owner too long for the durable "
                       f"header ({len(head)} bytes)")
    return head.ljust(HEADER_SPAN, b"\x00")


def unpack_header(raw: bytes, where: str
                  ) -> Tuple[int, str, int, str, int, int]:
    """:func:`pack_header`'s inverse over the start of a home file:
    ``(pmo_id, name, size_bytes, owner, mode, log_size)``.  Any header
    it cannot parse — short, foreign, rotted — is a :class:`PmoError`
    naming ``where``, so recovery denies that one file and goes on."""
    try:
        magic, version, pmo_id, mode, size_bytes, log_size, \
            name_len, owner_len = _HEADER.unpack_from(raw)
        split = _HEADER.size + name_len
        name = raw[_HEADER.size:split].decode("utf-8")
        owner = raw[split:split + owner_len].decode("utf-8")
    except (struct.error, UnicodeDecodeError) as exc:
        raise PmoError(f"{where}: unreadable header ({exc})") from None
    if magic != FILE_MAGIC:
        raise PmoError(f"{where}: not a durable PMO file")
    if version != FORMAT_VERSION:
        raise PmoError(f"{where}: format version {version} "
                       f"unsupported")
    return pmo_id, name, size_bytes, owner, mode, log_size


def write_header(path: Path, header: bytes, *,
                 fsync: bool = True) -> None:
    """(Re)create a PMO's durable file as its bare header page."""
    with open(path, "wb") as fh:
        fh.write(header)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())


def write_journal(path: Path, seq: int,
                  pages: List[Tuple[int, bytes]], crcs: List[int], *,
                  fsync: bool = True) -> None:
    """Write (and fsync) one batch's sealed journal.  The one journal
    writer: the store commits through it and the replication applier
    mirrors through it, so both pool directories hold the same bytes
    that :meth:`PmoStore.load_all` replays.

    Single joined write: the blob is assembled in memory (headers
    pre-packed per page) and hits the file in one syscall before the
    one fsync."""
    jrn_page = _JRN_PAGE.pack
    parts = [_JRN_HEAD.pack(JOURNAL_MAGIC, seq, len(pages))]
    for (index, page), crc in zip(pages, crcs):
        parts.append(jrn_page(index, crc))
        parts.append(page)
    parts.append(_JRN_COMMIT.pack(JOURNAL_COMMIT, seq))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())


def read_journal(path: Path
                 ) -> Optional[Tuple[List[Tuple[int, bytes]], List[int]]]:
    """:func:`write_journal`'s inverse: the sealed batch as ``(pages,
    crcs)``, each page checked against its CRC — or None for a journal
    that is absent, torn before its commit record, or corrupt (never
    applied: the home file it did not reach stays authoritative)."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None
    if len(raw) < _JRN_HEAD.size + _JRN_COMMIT.size:
        return None
    magic, seq, count = _JRN_HEAD.unpack_from(raw, 0)
    step = _JRN_PAGE.size + PAGE_SIZE
    body = _JRN_HEAD.size + count * step
    if magic != JOURNAL_MAGIC or not count or \
            len(raw) < body + _JRN_COMMIT.size:
        return None
    if _JRN_COMMIT.unpack_from(raw, body) != (JOURNAL_COMMIT, seq):
        return None
    pages: List[Tuple[int, bytes]] = []
    crcs: List[int] = []
    for pos in range(_JRN_HEAD.size, body, step):
        index, crc = _JRN_PAGE.unpack_from(raw, pos)
        page = raw[pos + _JRN_PAGE.size:pos + step]
        if _page_crc(page) != crc:
            return None
        pages.append((index, page))
        crcs.append(crc)
    return pages, crcs


def write_home(path: Path, pages: List[Tuple[int, bytes]],
               crcs: List[int], *, fsync: bool = True,
               faults: Optional["FaultPlan"] = None
               ) -> Tuple[List[int], List[int]]:
    """Write (and fsync) a batch's page slots — the one slot writer:
    commit, journal replay, scrub repair and the replication applier
    all store pages through it (only commit passes a fault plan).
    Returns the (torn, rotted) page indices ``faults`` injected."""
    torn: List[int] = []
    rot: List[int] = []
    trailer_pack = TRAILER.pack
    with open(path, "r+b") as fh:
        seek = fh.seek
        write = fh.write
        for (index, page), crc in zip(pages, crcs):
            trailer = trailer_pack(crc, PAGE_MARKER)
            seek(HEADER_SPAN + index * SLOT_SIZE)
            if faults is not None and \
                    faults.fire("store.torn_page") is not None:
                # Torn mid-page: half the new bytes land, the
                # trailer claims the full new CRC — exactly what a
                # crash between the two media writes leaves.
                write(page[:PAGE_SIZE // 2])
                seek(HEADER_SPAN + index * SLOT_SIZE + PAGE_SIZE)
                write(trailer)
                torn.append(index)
                continue
            # Page + trailer as one slab write, not two.
            write(page + trailer)
            if faults is not None and \
                    faults.fire("store.bit_rot") is not None:
                rot.append(index)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    return torn, rot


def read_slots(raw: bytes, base: int = HEADER_SPAN, first: int = 0
               ) -> Iterator[Tuple[int, memoryview, int]]:
    """:func:`write_home`'s inverse, the one slot reader: ``(index,
    page, stored crc)`` for each marker-bearing slot of a home file's
    bytes, in one pass (``base=0, first=i``: bytes read from slot
    ``i`` on).  Computes no CRC — a caller that must verify compares
    the page's with the stored one.  A slot the file ends inside reads
    as if zero-filled, which is *absent*, never bad: the marker's
    non-zero top byte is the slot's last byte, so only whole slots can
    bear it."""
    view = memoryview(raw)
    unpack_from = TRAILER.unpack_from
    whole_slots = range(base, len(raw) - SLOT_SIZE + 1, SLOT_SIZE)
    for index, pos in enumerate(whole_slots, first):
        crc, marker = unpack_from(view, pos + PAGE_SIZE)
        if marker == PAGE_MARKER:
            yield index, view[pos:pos + PAGE_SIZE], crc


class DurablePages(SparseBytes):
    """Sparse page storage that remembers which pages are dirty.

    Drop-in for :class:`SparseBytes` (the ``Pmo``, ``RedoLog``, and
    ``HeapAllocator`` all keep working unchanged); every write marks
    the touched page indices so :meth:`PmoStore.flush` knows exactly
    what to persist.
    """

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self.dirty: Set[int] = set()

    def write(self, offset: int, data: bytes) -> None:
        super().write(offset, data)
        first = offset // PAGE_SIZE
        last = (offset + max(0, len(data) - 1)) // PAGE_SIZE
        self.dirty.update(range(first, last + 1))


class _StoreEntry:
    """One registered PMO's durable state."""

    __slots__ = ("pmo", "path", "journal_path", "flush_seq",
                 "committed_seq", "scrub_cursor")

    def __init__(self, pmo: "Pmo", path: Path,
                 journal_path: Path) -> None:
        self.pmo = pmo
        self.path = path
        self.journal_path = journal_path
        #: last seq *claimed* by a snapshot (under the metadata lock).
        self.flush_seq = 0
        #: seq of the last batch on media (under the I/O lock); trails
        #: ``flush_seq`` while snapshots wait on the group committer.
        self.committed_seq = 0
        self.scrub_cursor = 0


class CommitTicket:
    """A parked flusher's handle on an in-flight group commit.

    ``psync`` snapshots its dirty pages, enqueues them, and parks on
    the ticket; the committer's leader thread retires it once the
    whole batch is journaled, home, and fsynced.  ``wait`` returns the
    snapshot's page count or re-raises the batch's failure; a caller
    that must not block registers :meth:`add_done_callback` instead.
    A stdlib future underneath orders a registration against the
    retirement under its own lock.
    """

    __slots__ = ("_future",)

    def __init__(self) -> None:
        self._future: futures.Future[int] = futures.Future()

    def complete(self, pages: int) -> None:
        self._future.set_result(pages)

    def fail(self, error: BaseException) -> None:
        self._future.set_exception(error)

    def add_done_callback(self,
                          fn: Callable[[CommitTicket], None]) -> None:
        """Run ``fn(ticket)`` exactly once: now if the ticket has
        retired, else on the thread that retires it (an exception
        ``fn`` raises is logged, never raised into the flusher)."""
        self._future.add_done_callback(lambda _: fn(self))

    def wait(self, timeout: Optional[float] = 60.0) -> int:
        if not futures.wait((self._future,), timeout).done:
            raise PmoError("group commit ticket timed out")
        return self._future.result()

    @property
    def done(self) -> bool:
        return self._future.done()


class GroupCommitter:
    """One leader thread fsyncs many concurrent flushers' batches.

    Concurrent ``psync`` callers snapshot their dirty pages (cheap,
    under the metadata lock) and park on a :class:`CommitTicket`; the
    dedicated flusher thread gathers every snapshot that arrives
    within the commit window (``interval_us``, bounded by
    ``max_batch``), merges same-PMO snapshots in submit order, and
    commits each PMO's merged batch through the unchanged
    journal-before-home protocol — so N concurrent psyncs cost one
    journal fsync + one home fsync per PMO instead of N of each.

    Crash semantics are those of the underlying
    :meth:`PmoStore._commit_entry`: a ticket only retires after its
    batch's journal *and* home slots are durable (and, replicated,
    the standby acked its own committed journal), so anything a
    returned ``psync`` promised is recoverable; a crash mid-batch
    leaves either an unapplied journal or a committed journal that
    recovery replays.
    """

    def __init__(self, store: "PmoStore", *,
                 interval_us: int = DEFAULT_COMMIT_INTERVAL_US,
                 max_batch: int = DEFAULT_COMMIT_MAX_BATCH) -> None:
        self._store = store
        self.interval_s = max(0, interval_us) / 1e6
        self.max_batch = max(1, max_batch)
        self._cond = threading.Condition()
        #: (entry, the seq its snapshot claimed, pages, ticket)
        self._queue: List[Tuple["_StoreEntry", int,
                                List[Tuple[int, bytes]],
                                CommitTicket]] = []
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        self._aborted = False
        #: observability: batches committed / snapshots submitted.
        self.batches = 0
        self.submitted = 0

    def submit(self, entry: "_StoreEntry", seq: int,
               pages: List[Tuple[int, bytes]]) -> CommitTicket:
        ticket = CommitTicket()
        with self._cond:
            if self._aborted or self._stopping:
                ticket.fail(PmoError("group committer is stopped"))
                return ticket
            self._queue.append((entry, seq, pages, ticket))
            self.submitted += 1
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="terp-group-commit",
                    daemon=True)
                self._thread.start()
            self._cond.notify()
        return ticket

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue:
                    if self._stopping:
                        return
                    self._cond.wait()
                if self.interval_s > 0 and not self._stopping and \
                        len(self._queue) < self.max_batch:
                    # The commit window: let concurrent flushers pile
                    # on before the leader pays the fsyncs.
                    self._cond.wait(self.interval_s)
                batch = self._queue[:self.max_batch]
                del self._queue[:len(batch)]
            if batch:
                self._commit_batch(batch)

    def _commit_batch(self, batch: List[Tuple["_StoreEntry", int,
                                              List[Tuple[int, bytes]],
                                              CommitTicket]]) -> None:
        self.batches += 1
        faults = self._store.faults
        if faults is not None:
            rule = faults.fire("store.commit_stall")
            if rule is not None and rule.delay_ns > 0:
                # The flusher stalls with snapshots staged: widens the
                # mid-group-commit window chaos kills land in, and
                # forces concurrent psyncs to merge deterministically.
                time.sleep(rule.delay_ns / 1e9)
        # Merge same-PMO snapshots in submit order: later snapshots of
        # a page supersede earlier ones within the combined journal,
        # and the merged batch carries the last (highest) seq claimed.
        # The seq is the one each snapshot claimed under the metadata
        # lock, never ``entry.flush_seq`` re-read here: a snapshot
        # taken while this batch commits has already bumped that.
        groups: Dict[int, List[Any]] = {}
        for entry, seq, pages, ticket in batch:
            group = groups.setdefault(id(entry), [entry, seq, {}, []])
            group[1] = seq
            group[2].update(pages)
            group[3].append((ticket, len(pages)))
        for entry, seq, merged, tickets in groups.values():
            try:
                # Journal fsync, ship, home fsync, standby ack — all
                # before the tickets retire, so a psync the client
                # sees acked is home here *and* journaled on a
                # connected standby: the zero-acknowledged-write-loss
                # half of invariant I7.
                self._store._commit_entry(entry, seq,
                                          sorted(merged.items()))
            except BaseException as exc:
                for ticket, _ in tickets:
                    ticket.fail(exc)
            else:
                for ticket, count in tickets:
                    ticket.complete(count)

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: by default every queued snapshot still
        commits before the flusher exits."""
        with self._cond:
            self._stopping = True
            if not drain:
                for *_, ticket in self._queue:
                    ticket.fail(PmoError("group committer stopped "
                                         "before the commit"))
                self._queue.clear()
            self._cond.notify_all()
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join(10.0)

    def abort(self) -> None:
        """Crash-path shutdown (the in-process SIGKILL): queued
        snapshots are dropped un-flushed — their psyncs never
        returned, so nothing durable was promised — and the flusher
        is joined so it cannot race a restarted service's recovery of
        the same pool directory."""
        with self._cond:
            self._aborted = True
            self._stopping = True
            for *_, ticket in self._queue:
                ticket.fail(PmoError("daemon crashed before the "
                                     "commit"))
            self._queue.clear()
            self._cond.notify_all()
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join(10.0)


class LoadReport:
    """What a pool-directory rescan found."""

    def __init__(self) -> None:
        self.loaded: List["Pmo"] = []
        self.quarantined: List[Tuple[str, str]] = []
        self.denied: List[Tuple[str, str]] = []
        self.pages_repaired = 0
        self.journals_applied = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "loaded": [p.name for p in self.loaded],
            "quarantined": list(self.quarantined),
            "denied": list(self.denied),
            "pages_repaired": self.pages_repaired,
            "journals_applied": self.journals_applied,
        }


class PmoStore:
    """The pool directory: one durable file (+ journal) per PMO."""

    def __init__(self, root: os.PathLike, *,
                 faults: Optional["FaultPlan"] = None,
                 fsync: bool = True,
                 commit_interval_us: int = DEFAULT_COMMIT_INTERVAL_US,
                 commit_max_batch: int = DEFAULT_COMMIT_MAX_BATCH) \
            -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: optional fault plan; sites ``store.torn_page`` (a home-slot
        #: write is torn mid-page, journal left in place) and
        #: ``store.bit_rot`` (a flushed page is corrupted at rest,
        #: journal already retired — unrepairable by design).
        self.faults = faults
        self.fsync = fsync
        self._entries: Dict[str, _StoreEntry] = {}
        self._scrub_order: List[str] = []
        self._scrub_next = 0
        #: metadata lock: entries, dirty sets, flush_seq, scrub state.
        self._lock = threading.RLock()
        #: file-I/O lock: journal/home/scrub writes serialize on this,
        #: never on ``_lock`` — snapshots on the serving thread stay
        #: cheap while the flusher thread holds fsyncs.  Ordering is
        #: always ``_lock`` before ``_io_lock``; the flusher takes
        #: only ``_io_lock``.
        self._io_lock = threading.Lock()
        #: optional :class:`repro.replication.shipper.JournalShipper`:
        #: when set, every group-commit batch is handed to it at its
        #: journal fsync (and every register/destroy as it happens).
        self.shipper: Optional[Any] = None
        self.committer = GroupCommitter(
            self, interval_us=commit_interval_us,
            max_batch=commit_max_batch)

    def close(self) -> None:
        """Drain and stop the group committer (graceful shutdown)."""
        self.committer.stop(drain=True)

    def abort_commits(self) -> None:
        """Kill the group committer without flushing (crash path)."""
        self.committer.abort()

    # -- registration ------------------------------------------------------

    def make_storage(self, name: str, size: int) -> DurablePages:
        """Storage factory handed to :class:`~repro.pmo.pool.PmoManager`."""
        return DurablePages(size)

    def path_for(self, name: str) -> Path:
        return home_file(self.root, name)

    def journal_path_for(self, name: str) -> Path:
        return journal_file(self.root, name)

    def register(self, pmo: "Pmo") -> None:
        """Adopt a PMO into the store; writes its header immediately
        so the PMO is discoverable by recovery even before the first
        ``psync``."""
        if not isinstance(pmo.storage, DurablePages):
            raise PmoError(
                f"PMO {pmo.name!r} does not use durable storage")
        with self._lock:
            if pmo.name in self._entries:
                return
            entry = _StoreEntry(pmo, self.path_for(pmo.name),
                                self.journal_path_for(pmo.name))
            self._entries[pmo.name] = entry
            self._scrub_order.append(pmo.name)
            if not entry.path.exists():
                with self._io_lock:
                    write_header(entry.path, pack_header(pmo),
                                 fsync=self.fsync)
        # Shipper hook OUTSIDE ``_lock``: the shipper's reconnect
        # bootstrap holds its send lock while reading
        # ``committed_state()`` (which takes ``_lock``), so calling
        # into the shipper under ``_lock`` would be an ABBA deadlock.
        # The lock order is: shipper send lock before store locks,
        # never the reverse.
        if self.shipper is not None:
            self.shipper.ship_header(pmo.name, pack_header(pmo))

    def unregister(self, name: str) -> None:
        with self._lock:
            self._entries.pop(name, None)
            if name in self._scrub_order:
                self._scrub_order.remove(name)
                self._scrub_next = 0

    def destroy(self, name: str) -> None:
        """Remove a PMO's durable files (``PMO_destroy``)."""
        with self._lock:
            self.unregister(name)
            with self._io_lock:
                self.path_for(name).unlink(missing_ok=True)
                self.journal_path_for(name).unlink(missing_ok=True)
        # Outside ``_lock`` for the same lock-order reason as the
        # register hook.  A destroy the link was down for is healed by
        # the reconciling bootstrap on reconnect.
        if self.shipper is not None:
            self.shipper.ship_destroy(name)

    def registered(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    # -- flush (the durability point) --------------------------------------

    def _snapshot(self, pmo: "Pmo") -> Optional[
            Tuple[_StoreEntry, int, List[Tuple[int, bytes]]]]:
        """Stage a flush: copy the dirty pages and claim a flush_seq.
        Returns ``(entry, claimed seq, pages)``.

        Metadata-lock only — no file I/O — so the serving thread pays
        microseconds here while the fsyncs happen on the committer's
        thread.  The dirty set clears at snapshot time: pages written
        *after* the snapshot re-dirty and belong to the next flush.
        """
        with self._lock:
            entry = self._entries.get(pmo.name)
            if entry is None:
                raise PmoError(f"PMO {pmo.name!r} is not registered "
                               "with the durable store")
            storage = pmo.storage
            assert isinstance(storage, DurablePages)
            if not storage.dirty:
                return None
            dirty = sorted(storage.dirty)
            entry.flush_seq += 1
            resident = storage._pages
            blank = b"\x00" * PAGE_SIZE
            pages = [(index, bytes(resident.get(index, blank)))
                     for index in dirty]
            storage.dirty.clear()
            return entry, entry.flush_seq, pages

    def _commit_entry(self, entry: _StoreEntry, seq: int,
                      pages: List[Tuple[int, bytes]]) -> None:
        """Make one PMO's page batch durable — and, with a shipper,
        replicated — journal-before-home, shipped at the journal fsync.

        The double-write protocol split at its durability point:

        1. under the I/O lock: apply any pending journal, write and
           fsync this batch's journal, ``committed_seq = seq``.  From
           here a crash recovers the batch (:meth:`load_all` replays a
           committed journal; :meth:`committed_state` overlays it);
        2. holding no store lock: the shipper's send half, so the
           standby journals the batch *while* step 3 runs (lock order
           stays send lock before store locks; a bootstrap racing this
           gap snapshots a state that already contains the batch);
        3. under the I/O lock: home slots, fsync, retire the journal;
        4. park on the standby's ack.

        Returning means both: the home slots are fsynced here *and*
        the standby acked a committed journal (or shipping degraded).
        Without a shipper steps 1 and 3 run back to back.  Never holds
        the metadata lock — it stays free for snapshots.
        """
        name = entry.pmo.name
        crcs = page_crcs(pages)
        with self._io_lock:
            self._check_registered(entry)
            pending = read_journal(entry.journal_path)
            if pending:
                # A journal survives a flush only when a home write was
                # torn: apply it before this batch's journal replaces
                # it, or the torn page would lose its repair source.
                write_home(entry.path, *pending, fsync=self.fsync)
                entry.journal_path.unlink(missing_ok=True)
            write_journal(entry.journal_path, seq, pages, crcs,
                          fsync=self.fsync)
            entry.committed_seq = seq
        shipper = self.shipper
        # The shipper never raises: a dead or absent standby degrades
        # replication (None: nothing to wait for), never durability.
        shipped = None if shipper is None else shipper.send_commit(
            name, entry.pmo.pmo_id, seq, pages, crcs)
        with self._io_lock:
            # A PMO_destroy that won the gap has unlinked (or is about
            # to unlink) both files: fail the batch, resurrect nothing.
            self._check_registered(entry)
            torn_pages, rot_pages = write_home(
                entry.path, pages, crcs, fsync=self.fsync,
                faults=self.faults)
            if not torn_pages:
                # The batch is fully home: retire the journal.  A torn
                # write (injected or real) keeps it — that journal is
                # the repair source scrub and recovery rely on.
                entry.journal_path.unlink(missing_ok=True)
            if rot_pages:
                # At-rest decay *after* the journal retired: one bit
                # flipped under the page's original CRC — no repair
                # source, the quarantine case.
                rotted = [((index, bytes([page[0] ^ 0x01]) + page[1:]),
                           crc) for (index, page), crc in zip(pages, crcs)
                          if index in rot_pages]
                write_home(entry.path, *zip(*rotted), fsync=self.fsync)
        if shipped is not None:
            shipper.await_commit(name, shipped)

    def _check_registered(self, entry: _StoreEntry) -> None:
        """Under the I/O lock: ``destroy`` unregisters *before* it
        takes that lock to unlink, so an entry still registered here
        keeps its files at least until the lock is released."""
        if self._entries.get(entry.pmo.name) is not entry:
            raise PmoError(f"PMO {entry.pmo.name!r} was destroyed "
                           "before its commit reached media")

    def flush(self, pmo: "Pmo") -> int:
        """Persist the PMO's dirty pages; returns pages flushed.

        Zero dirty pages is the guaranteed fast path: no journal read,
        no file open, no I/O lock — ``psync`` on a clean PMO costs a
        dict lookup.  Otherwise the snapshot rides the group committer
        so concurrent flushers share fsyncs; this call parks until its
        ticket retires (the durability promise is unchanged).
        """
        ticket = self.flush_async(pmo)
        if ticket is None:
            return 0
        return ticket.wait()

    def flush_async(self, pmo: "Pmo") -> Optional[CommitTicket]:
        """Snapshot + enqueue on the group committer, without waiting.

        Returns ``None`` when the PMO has no dirty pages (the zero-I/O
        fast path); otherwise a :class:`CommitTicket` whose ``wait()``
        returns the page count once the batch is durable.
        """
        snap = self._snapshot(pmo)
        if snap is None:
            return None
        return self.committer.submit(*snap)

    # -- verification / scrub ----------------------------------------------

    def verify_page(self, name: str, index: int, *,
                    repair: bool = True) -> str:
        """Verify one on-disk page; returns ``ok``/``absent``/
        ``repaired``/``repaired-from-memory``.

        Raises :class:`TornPageError` (journal copy exists) or
        :class:`IntegrityError` (no repair source) when ``repair`` is
        off, quarantines the PMO when repair is impossible.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise PmoError(f"PMO {name!r} is not registered")
            # The whole read-check-repair sequence holds the I/O lock
            # so it cannot interleave with a group-commit batch
            # rewriting the same slots.
            with self._io_lock:
                with open(entry.path, "rb") as fh:
                    fh.seek(HEADER_SPAN + index * SLOT_SIZE)
                    slot = next(read_slots(fh.read(SLOT_SIZE), 0, index),
                                None)
                if slot is None:
                    return "absent"
                _, page, crc = slot
                if _page_crc(page) == crc:
                    return "ok"
                journal = read_journal(entry.journal_path)
                good = dict(journal[0]).get(index) if journal else None
                if good is None:
                    resident = entry.pmo.storage._pages.get(index)
                    if not repair or resident is None:
                        entry.pmo.quarantine(
                            f"page {index} failed CRC with no journal "
                            "copy")
                        raise IntegrityError(
                            f"PMO {name!r} page {index}: CRC mismatch, "
                            "no repair source (bit rot)", pmo=name,
                            page_index=index)
                    good = bytes(resident)
                    outcome = "repaired-from-memory"
                else:
                    if not repair:
                        raise TornPageError(
                            f"PMO {name!r} page {index}: CRC mismatch, "
                            "journal copy available", pmo=name,
                            page_index=index)
                    outcome = "repaired"
                write_home(entry.path, [(index, good)],
                           [_page_crc(good)], fsync=self.fsync)
                return outcome

    def present_pages(self, name: str) -> List[int]:
        """Indices of flushed (marker-bearing) pages on disk."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise PmoError(f"PMO {name!r} is not registered")
            # One read + a trailer scan (no CRC: the scrubber asks
            # every sweep), not a seek/read pair per slot.
            with self._io_lock:
                raw = entry.path.read_bytes()
            return [index for index, _, _ in read_slots(raw)]

    def committed_state(self, name: str
                        ) -> Tuple[bytes, int, List[Tuple[int, bytes]]]:
        """One PMO's durable state: ``(header, flush_seq, pages)``.

        Reads the *on-media* bytes (home slots overlaid with any
        retained journal batch), never the resident copy — exactly
        what a crash right now would recover, which is exactly what a
        replication bootstrap must ship.  Pages whose marker is absent
        or whose CRC fails are skipped (scrub owns those).
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise PmoError(f"PMO {name!r} is not registered")
            with self._io_lock:
                # The seq of what is on media, not the last *claimed*
                # one: a snapshot still queued on the committer is not
                # in these bytes, and its batch must still ship.
                flush_seq = entry.committed_seq
                raw = entry.path.read_bytes()
                journal = read_journal(entry.journal_path)
        header = raw[:HEADER_SPAN].ljust(HEADER_SPAN, b"\x00")
        pages = {index: bytes(page)
                 for index, page, crc in read_slots(raw)
                 if _page_crc(page) == crc}
        if journal:
            pages.update(journal[0])
        return header, flush_seq, sorted(pages.items())

    def scrub(self, max_pages: int = SCRUB_PAGES_PER_PASS
              ) -> Dict[str, int]:
        """Verify up to ``max_pages`` at-rest pages, round-robin over
        every registered PMO; repairs from the journal (or, for a live
        PMO, from its resident copy).  Returns outcome counts."""
        result = {"verified": 0, "repaired": 0, "quarantined": 0}
        with self._lock:
            if not self._scrub_order:
                return result
            budget = max_pages
            rounds = 0
            while budget > 0 and rounds < len(self._scrub_order):
                name = self._scrub_order[
                    self._scrub_next % len(self._scrub_order)]
                self._scrub_next += 1
                rounds += 1
                entry = self._entries.get(name)
                if entry is None or entry.pmo.quarantined:
                    continue
                pages = self.present_pages(name)
                if not pages:
                    continue
                rounds = 0           # found work: keep going
                start = entry.scrub_cursor % len(pages)
                take = pages[start:start + budget]
                entry.scrub_cursor = start + len(take)
                if entry.scrub_cursor >= len(pages):
                    entry.scrub_cursor = 0
                for index in take:
                    try:
                        outcome = self.verify_page(name, index)
                    except IntegrityError:
                        result["quarantined"] += 1
                        break
                    result["verified"] += 1
                    if outcome.startswith("repaired"):
                        result["repaired"] += 1
                budget -= len(take)
        return result

    # -- recovery (pool rescan) --------------------------------------------

    def load_all(self) -> LoadReport:
        """Rescan the pool directory: apply journals, verify pages,
        rebuild every PMO through full crash recovery, quarantine what
        cannot be proven intact."""
        report = LoadReport()
        for path in sorted(self.root.glob("*.pmo")):
            journal_path = path.with_suffix(".journal")
            try:
                pmo, repaired, applied = self._load_one(path,
                                                        journal_path)
            except PmoError as exc:
                # Page-level rot inside a parseable file comes back
                # quarantined (read-only) from ``_load_one``; reaching
                # here means the header did not parse or the file was
                # too damaged to even construct: deny this one file.
                report.denied.append((path.name, str(exc)))
                continue
            report.pages_repaired += repaired
            report.journals_applied += applied
            if pmo.quarantined:
                report.quarantined.append((pmo.name,
                                           pmo.quarantine_reason))
            report.loaded.append(pmo)
            with self._lock:
                entry = _StoreEntry(pmo, path, journal_path)
                self._entries[pmo.name] = entry
                self._scrub_order.append(pmo.name)
        return report

    def _load_one(self, path: Path, journal_path: Path
                  ) -> Tuple["Pmo", int, int]:
        from repro.pmo.pmo import Pmo
        # One read of the whole file; every page/trailer below is a
        # memoryview slice of it, CRC'd in place — recovery is a
        # single pass, not a seek/read pair per slot.
        raw = path.read_bytes()
        pmo_id, name, size_bytes, owner, mode, log_size = \
            unpack_header(raw, path.name)
        journal = read_journal(journal_path)
        replayed = {index for index, _ in journal[0]} if journal else ()
        storage = DurablePages(size_bytes)
        bad_pages: List[int] = []
        crc32 = zlib.crc32
        for index, page, crc in read_slots(raw):
            if crc32(page) & 0xFFFFFFFF == crc:
                storage._pages[index] = bytearray(page)
            elif index not in replayed:
                bad_pages.append(index)
        repaired = 0
        if journal:
            # Double-write recovery: re-apply the whole committed
            # batch.  Idempotent — pages already home verify and
            # are rewritten identically; torn pages are healed.
            repaired = sum(storage._pages.get(index) != page
                           for index, page in journal[0])
            write_home(path, *journal, fsync=self.fsync)
            storage._pages.update((index, bytearray(page))
                                  for index, page in journal[0])
            journal_path.unlink(missing_ok=True)
        applied = 1 if journal else 0

        if not storage._pages and not bad_pages:
            # Created but never flushed: only the durable header made
            # it to media.  Reconstruct the PMO empty — exactly what a
            # crash before the first psync promises.
            return Pmo(pmo_id, name, size_bytes, owner=owner,
                       mode=mode, log_size=log_size,
                       storage=storage), repaired, applied

        quarantine_reason = ""
        if bad_pages:
            quarantine_reason = (
                f"{len(bad_pages)} page(s) failed CRC with no journal "
                f"copy (bit rot): {bad_pages[:8]}")
        try:
            pmo = Pmo.from_snapshot(pmo_id, name, storage,
                                    log_size=log_size, owner=owner,
                                    mode=mode)
        except PmoError:
            if not quarantine_reason:
                raise
            # Recovery itself failed on rotted bytes: keep the PMO
            # readable-as-is but skip log replay and the allocator.
            pmo = Pmo.quarantined_shell(pmo_id, name, storage,
                                        log_size=log_size, owner=owner,
                                        mode=mode)
        if quarantine_reason:
            pmo.quarantine(quarantine_reason)
        return pmo, repaired, applied
