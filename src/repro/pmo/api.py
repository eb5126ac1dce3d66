"""The Table I pool API, as a user-facing facade.

This module packages the substrates into the exact interface prior PMO
work describes (Table I): ``PMO_create``, ``PMO_open``, ``PMO_close``,
``pmalloc``, ``pfree``, ``oid_direct``, ``attach``, ``detach``.  It is
the API the examples and workloads program against.

A :class:`PmoLibrary` owns one process's TERP runtime.  Because the
reproduction is a simulation, the library also carries a manual clock
(:attr:`clock_ns`, advanced with :meth:`tick`) and a current-thread
context (:meth:`thread`) so multi-threaded usage can be expressed in
plain sequential test code.
"""

from __future__ import annotations

import contextlib
import random
import struct
import threading
import time
from typing import TYPE_CHECKING, Any, Iterator, Optional, Tuple

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.obs import Observability
    from repro.pmo.store import PmoStore

from repro.core.errors import (
    InjectedCrash, InjectedFault, IntegrityError, PmoError, TerpError)
from repro.core.permissions import Access
from repro.core.runtime import AttachResult, Handle, TerpRuntime
from repro.core.semantics import EwConsciousSemantics, SemanticsEngine
from repro.core.units import us
from repro.pmo.object_id import Oid
from repro.pmo.pmo import Pmo
from repro.pmo.pool import PmoManager


class PmoLibrary:
    """One process's view of the PMO system (Table I operations)."""

    def __init__(self, *, semantics: Optional[SemanticsEngine] = None,
                 ew_target_us: float = 40.0, seed: int = 2022,
                 strict: bool = True,
                 obs: Optional["Observability"] = None,
                 faults: Optional["FaultPlan"] = None,
                 store: Optional["PmoStore"] = None) -> None:
        if semantics is None:
            semantics = EwConsciousSemantics(us(ew_target_us))
        self.runtime = TerpRuntime(
            semantics, rng=random.Random(seed), strict=strict,
            obs=obs)
        self.obs = obs
        #: optional durable pool backend; when set, ``PMO_create``
        #: provisions file-backed storage and ``psync`` flushes dirty
        #: pages through the double-write journal.
        self.store = store
        if store is not None:
            self.runtime.manager.storage_factory = store.make_storage
        self._tracer = (obs.tracer if obs is not None and obs.enabled
                        else None)
        #: optional fault-injection plan; sites ``lib.storage_write``
        #: (a checked write fails transiently or crashes the process)
        #: and ``lib.psync_stall`` (the durability point stalls).
        self.faults = faults
        self.clock_ns = 0
        self._thread_id = 0
        #: Re-entrancy guard for multi-threaded embeddings (the terpd
        #: service shares one library across many sessions).  All
        #: Table I entry points take it; it is re-entrant so guarded
        #: methods may call each other.
        self.lock = threading.RLock()

    # -- simulation plumbing ---------------------------------------------

    def tick(self, delta_ns: int = 1) -> int:
        """Advance the manual clock (simulated computation time)."""
        if delta_ns < 0:
            raise TerpError("cannot tick backwards")
        with self.lock:
            self.clock_ns += delta_ns
            return self.clock_ns

    def advance_to(self, now_ns: int) -> int:
        """Move the clock forward to an absolute time (idempotent).

        Unlike :meth:`tick` this tolerates stale timestamps — a caller
        holding an already-elapsed wall-clock reading simply leaves the
        clock alone.  The terpd service drives the library clock from
        the host's monotonic clock through this method.
        """
        with self.lock:
            if now_ns > self.clock_ns:
                self.clock_ns = now_ns
            return self.clock_ns

    @contextlib.contextmanager
    def thread(self, thread_id: int) -> Iterator[None]:
        """Run the enclosed calls as ``thread_id``.

        The lock is held for the whole block, so an entity's sequence
        of calls is atomic with respect to other threads sharing the
        library.
        """
        with self.lock:
            previous = self._thread_id
            self._thread_id = thread_id
            try:
                yield
            finally:
                self._thread_id = previous

    @property
    def manager(self) -> PmoManager:
        return self.runtime.manager

    # -- Table I API -------------------------------------------------------

    def PMO_create(self, name: str, size: int, mode: int = 0o600,
                   *, owner: str = "root") -> Pmo:
        """Create a PMO with the specified size; the caller owns it."""
        with self.lock:
            pmo = self.manager.create(name, size, owner=owner, mode=mode)
            if self.store is not None:
                self.store.register(pmo)
            return pmo

    def PMO_open(self, name: str, requested: Access = Access.RW,
                 *, user: str = "root") -> Pmo:
        """Reopen a PMO by name that was previously created."""
        with self.lock:
            return self.manager.open(name, user=user, requested=requested)

    def PMO_close(self, pmo: Pmo) -> None:
        """Close a PMO (drops one open reference)."""
        with self.lock:
            self.manager.close(pmo)

    def PMO_destroy(self, name: str) -> None:
        """Remove a PMO from the namespace (Table I ``PMO_destroy``).

        The PMO must not be mapped anywhere; remaining open references
        are drained first — destroy is an owner-level operation that
        outranks per-caller open counts.
        """
        with self.lock:
            if not self.manager.exists(name):
                raise PmoError(f"no PMO named {name!r}")
            pmo = self.manager.open(name, user="root",
                                    requested=Access.NONE)
            self.manager.close(pmo)
            if self.runtime.semantics.is_mapped(pmo.pmo_id):
                raise PmoError(
                    f"PMO {name!r} is still attached; detach first")
            while self.manager.open_count(pmo) > 0:
                self.manager.close(pmo)
            self.manager.destroy(name)
            if self.store is not None:
                self.store.destroy(name)

    def pmalloc(self, pmo: Pmo, size: int) -> Oid:
        """Allocate persistent data on ``pmo``; returns its OID."""
        with self.lock:
            return pmo.pmalloc(size)

    def pfree(self, oid: Oid) -> None:
        """Free persistent data pointed to by the OID."""
        with self.lock:
            self.manager.get(oid.pool_id).pfree(oid)

    def oid_direct(self, oid: Oid) -> int:
        """Translate an OID to its current virtual address.

        Requires the owning PMO to be attached; this is the
        relocatable-pointer path every PMO access goes through.
        """
        pmo = self.manager.get(oid.pool_id)
        return self.runtime.space.va_of(pmo.pmo_id, oid.offset)

    def attach(self, pmo: Pmo, permission: Access = Access.RW) -> Handle:
        """Memory-map an opened PMO with the requested permission.

        A quarantined PMO (failed integrity verification with no
        repair source) can only be attached read-only — the corrupt
        bytes stay observable for forensics but never writable.
        """
        with self.lock:
            if pmo.quarantined and permission & Access.WRITE:
                raise IntegrityError(
                    f"PMO {pmo.name!r} is quarantined "
                    f"({pmo.quarantine_reason}); write attach denied",
                    pmo=pmo.name)
            result = self.runtime.attach(self._thread_id, pmo, permission,
                                         self.clock_ns)
            if not result.ok:
                raise PmoError(f"attach failed: {result.decision.reason}")
            return result.handle

    def detach(self, pmo: Pmo) -> None:
        """Unmap an attached PMO from the process address space."""
        with self.lock:
            self.runtime.detach(self._thread_id, pmo, self.clock_ns)

    def psync(self, pmo: Pmo) -> int:
        """Durability point (Table I ``psync``): persist pending writes.

        Commits the PMO's open transaction, if any, so every logged
        write reaches its home location.  With a durable backend the
        PMO's dirty pages — including write-through (non-transactional)
        writes — are then flushed to its pool file through the
        double-write journal.  Returns the number of writes + pages
        made durable; on the pure in-memory backend a no-transaction
        psync is a (valid) no-op returning 0.

        :meth:`psync_submit` plus the wait: the pages were snapshotted
        under the library lock, the fsyncs are waited for outside it.
        """
        flushed, ticket = self.psync_submit(pmo)
        return flushed if ticket is None else flushed + ticket.wait()

    def psync_submit(self, pmo: Pmo) -> "Tuple[int, Optional[Any]]":
        """``psync``, split for group commit: snapshot now, fsync later.

        Commits the open transaction and *snapshots* the dirty pages
        onto the store's group committer instead of flushing inline.
        Returns ``(count, ticket)``: ``count`` is what is already
        certain (log writes committed), ``ticket`` is ``None`` when
        there was nothing to flush (the zero-dirty fast path) or a
        :class:`~repro.pmo.store.CommitTicket` whose ``wait()`` —
        callable off the serving thread — adds the flushed page count
        once the batch is durable.  Nothing is promised durable until
        the ticket retires.
        """
        tracer = self._tracer
        t0 = tracer.clock() if tracer is not None else 0
        if self.faults is not None:
            rule = self.faults.fire("lib.psync_stall")
            if rule is not None and rule.delay_ns > 0:
                # Media stall at the durability point.  Slept outside
                # the library lock so other sessions keep moving.
                time.sleep(rule.delay_ns / 1e9)
        with self.lock:
            if pmo.quarantined:
                raise IntegrityError(
                    f"PMO {pmo.name!r} is quarantined "
                    f"({pmo.quarantine_reason}); psync denied",
                    pmo=pmo.name)
            flushed = 0
            if pmo.log.in_transaction:
                flushed = len(pmo.log.pending_writes)
                pmo.commit_tx()
            ticket = None
            if self.store is not None and \
                    getattr(pmo.storage, "dirty", None):
                # The dirty check (after any tx commit, which itself
                # dirties pages) is the zero-I/O fast path: a psync
                # with nothing pending never touches the store — no
                # journal round-trip, no file open, no lock traffic.
                ticket = self.store.flush_async(pmo)
        if tracer is not None:
            tracer.record_since("lib.psync", t0, pmo=pmo.name,
                                flushed=flushed)
        return flushed, ticket

    # -- guarded data access -------------------------------------------------

    def read(self, oid: Oid, n: int) -> bytes:
        """Checked read: semantics- and permission-validated."""
        with self.lock:
            pmo = self.manager.get(oid.pool_id)
            self.runtime.access(self._thread_id, pmo, oid.offset,
                                Access.READ, self.clock_ns)
            return pmo.read(oid.offset, n)

    def write(self, oid: Oid, data: bytes) -> None:
        """Checked write."""
        if self.faults is not None:
            rule = self.faults.fire("lib.storage_write")
            if rule is not None:
                # The fault fires before any byte moves: a transient
                # device error (or a crash) never leaves a torn write.
                cls = InjectedCrash if rule.kind == "crash" \
                    else InjectedFault
                raise cls("injected: storage write failed",
                          site="lib.storage_write")
        with self.lock:
            pmo = self.manager.get(oid.pool_id)
            if pmo.quarantined:
                raise IntegrityError(
                    f"PMO {pmo.name!r} is quarantined "
                    f"({pmo.quarantine_reason}); write denied",
                    pmo=pmo.name)
            self.runtime.access(self._thread_id, pmo, oid.offset,
                                Access.WRITE, self.clock_ns)
            pmo.write(oid.offset, data)

    def read_u64(self, oid: Oid) -> int:
        return struct.unpack("<Q", self.read(oid, 8))[0]

    def write_u64(self, oid: Oid, value: int) -> None:
        self.write(oid, struct.pack("<Q", value & ((1 << 64) - 1)))

