"""The standby's half of journal shipping: apply, ack, promote.

:class:`JournalApplier` continuously replays shipped frames into its
own pool directory through the durable store's own journal and home
writers — called, never re-derived — so the standby's directory is at
all times a valid pool that
:meth:`~repro.pmo.store.PmoStore.load_all` can recover.  A batch is
acked once its journal is committed and fsynced (the point recovery
replays from, and the point the primary ships at); its home slots are
written after the ack, under the same lock.  That is the standby's
half of invariant I7: an ack the primary's semi-sync commit waited for
means the acknowledged write is recoverable from two pool directories.

Per PMO the applier enforces the shipped chain: batch ``(prev, seq]``
must extend the last applied seq exactly (``prev == -1`` resets the
chain — a bootstrap snapshot).  A broken chain raises, the link drops,
and the primary's reconnect bootstraps from scratch: gaps heal by
snapshot, never by guessing.

:class:`StandbyDaemon` wraps the applier in a listening socket plus a
``promote`` control path.  Until then it loads no serving stack — no
asyncio, sessions or observability: it applies, and that is all.
Promotion is deliberately thin: it imports the service, closes the
applier (waiting out an apply in flight) and constructs a
:class:`~repro.service.server.TerpService` over the standby's pool
directory on the primary's port — and
:class:`~repro.service.recovery.RecoveryManager` runs **verbatim** in
the service constructor, exactly as a warm restart would: pool rescan,
epoch adoption from the mirrored session journal (the exposure clock
continues, unbroken, through the failover), outage-attributed forced
detaches, session restore in the lingering state.  Clients reconnect
through the existing typed-``ConnectionLost`` retry path and resume
with the tokens they already hold.
"""

from __future__ import annotations

import os
import socket
import threading
import zlib
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple)

from repro.core.errors import TerpError
from repro.core.units import PAGE_SIZE
from repro.pmo.store import (
    HEADER_SPAN, home_file, journal_file, write_header, write_home,
    write_journal)
from repro.replication.wire import (
    REPL_PROTOCOL_VERSION, Buffer, ReplicationWireError, recv_msg, send_msg)
from repro.service.launch import SETTINGS, STARTUP_TIMEOUT_S
from repro.service.recovery import SessionJournal

if TYPE_CHECKING:
    from repro.service.server import ServiceThread

__all__ = ["JournalApplier", "StandbyDaemon", "ReplicationChainError",
           "promote"]


class ReplicationChainError(TerpError):
    """A shipped batch does not extend the applied chain; the link
    must drop and re-bootstrap."""


class JournalApplier:
    """Replays shipped frames into a standby pool directory."""

    def __init__(self, pool_dir: os.PathLike) -> None:
        self.root = Path(pool_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._closed = False
        self._journal = SessionJournal(self.root)
        #: last applied flush_seq per PMO — the chain heads.
        self.applied: Dict[str, int] = {}
        self.batches_applied = 0
        self.pages_applied = 0
        self.journal_records = 0
        self.chain_errors = 0

    def path_for(self, name: str) -> Path:
        return home_file(self.root, name)

    def journal_path_for(self, name: str) -> Path:
        return journal_file(self.root, name)

    def close(self) -> None:
        """Stop applying, for good: at shutdown, and at promotion —
        recovery is about to rescan this directory and must be its
        only writer.  Taking the lock waits out an apply in flight;
        every later apply raises — so it never acks — and its link
        drops."""
        with self._lock:
            self._closed = True
            self._journal.close()

    @contextmanager
    def _applying(self) -> Iterator[None]:
        """The applier lock, refused once closed."""
        with self._lock:
            if self._closed:
                raise ReplicationChainError(
                    "the applier is closed: its chain has ended")
            yield

    # -- frame application -------------------------------------------------

    def apply_header(self, name: str, header: Buffer) -> None:
        """(Re)create a PMO's durable file as the bare header.

        Deliberately truncating: a header is shipped at registration
        (fresh PMO, nothing to keep) and at bootstrap (a full snapshot
        follows immediately), so any pages already in the file belong
        to a stale generation and must not survive into a promotion.
        The chain restarts at 0; the bootstrap snapshot's ``prev ==
        -1`` re-seats it at the snapshot seq.
        """
        if len(header) != HEADER_SPAN:
            raise ReplicationWireError(
                f"shipped header is {len(header)} bytes, "
                f"expected {HEADER_SPAN}")
        with self._applying():
            write_header(self.path_for(name), header)
            self.journal_path_for(name).unlink(missing_ok=True)
            self.applied[name] = 0

    def apply_batch(self, name: str, seq: int, prev: int,
                    meta: List[List[int]], payload: Buffer,
                    acked: Optional[Callable[[], None]] = None) -> None:
        """Apply one committed batch journal-before-home and record
        its seq as the PMO's new chain head; ``acked`` is called in
        between, at the durability point.  Raises (never acks) on a
        chain break, a CRC mismatch, a malformed payload, or a closed
        applier."""
        pages, crcs = self._check_batch(name, seq, prev, meta, payload)
        with self._applying():
            # ``prev == -1`` (a bootstrap snapshot) resets the chain;
            # a chain with no head has had no header applied.
            last = self.applied.get(name)
            if last is None or prev not in (-1, last):
                self.chain_errors += 1
                raise ReplicationChainError(
                    f"gap in shipped stream for {name!r}: batch covers "
                    f"({prev}, {seq}] but last applied seq is {last}")
            # The same double-write discipline as the primary: a
            # standby crash mid-apply leaves either an unapplied
            # journal or a committed one recovery replays.
            journal = self.journal_path_for(name)
            write_journal(journal, seq, pages, crcs)
            self.applied[name] = seq
            self.batches_applied += 1
            self.pages_applied += len(pages)
            try:
                if acked is not None:
                    acked()
            finally:
                # Still under the lock: a promotion (``close``) waits
                # for the home write instead of racing it.
                write_home(self.path_for(name), pages, crcs)
                journal.unlink(missing_ok=True)

    def apply_journal(self, record: Dict[str, Any]) -> None:
        """Append one mirrored session-journal record."""
        with self._applying():
            self._journal._append(record)
            self.journal_records += 1

    def apply_destroy(self, name: str) -> None:
        with self._applying():
            self.path_for(name).unlink(missing_ok=True)
            self.journal_path_for(name).unlink(missing_ok=True)
            self.applied.pop(name, None)

    def apply_reset(self, names: List[str]) -> None:
        """Reconcile the mirror with the primary's registered set (the
        first frame of every bootstrap): prune mirrored files for PMOs
        the primary no longer has — a destroy that raced a disconnect,
        or a stale prior generation in this directory — and restart
        the mirrored session journal, which the primary re-ships in
        full immediately after."""
        live = {str(name) for name in names}
        keep = {self.path_for(name).stem for name in live}
        with self._applying():
            # ``sessions.journal`` goes too: no safe filename lacks
            # its digest suffix, so ``keep`` never holds its stem.
            self._journal.close()
            for pattern in ("*.pmo", "*.journal"):
                for path in self.root.glob(pattern):
                    if path.stem not in keep:
                        path.unlink(missing_ok=True)
            for name in list(self.applied):
                if name not in live:
                    del self.applied[name]

    def status(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "pool_dir": str(self.root),
                "applied": dict(self.applied),
                "batches_applied": self.batches_applied,
                "pages_applied": self.pages_applied,
                "journal_records": self.journal_records,
                "chain_errors": self.chain_errors,
            }

    # -- internals ---------------------------------------------------------

    def _check_batch(self, name: str, seq: int, prev: int,
                     meta: List[List[int]], payload: Buffer
                     ) -> Tuple[List[Tuple[int, memoryview]], List[int]]:
        """The batch's pages and CRCs, each page checked against the
        CRC it shipped with (the writers then store that one).  The
        pages are views of ``payload``, which the journal and home
        writers take as they are."""
        if prev != -1 and seq <= prev:
            raise ReplicationWireError(
                f"non-monotone batch for {name!r}: seq {seq} <= "
                f"prev {prev}")
        if len(payload) != len(meta) * PAGE_SIZE:
            raise ReplicationWireError(
                f"batch payload is {len(payload)} bytes for "
                f"{len(meta)} page(s)")
        pages: List[Tuple[int, memoryview]] = []
        crcs: List[int] = []
        view = memoryview(payload)
        for slot, entry in enumerate(meta):
            if type(entry) is not list or [*map(type, entry)] != [int, int]:
                raise ReplicationWireError(
                    f"page entry {entry!r} is not [index, crc]")
            index, crc = entry
            page = view[slot * PAGE_SIZE:(slot + 1) * PAGE_SIZE]
            if zlib.crc32(page) & 0xFFFFFFFF != crc:
                raise ReplicationWireError(
                    f"shipped page {index} of {name!r} failed CRC")
            pages.append((index, page))
            crcs.append(crc)
        return pages, crcs


class StandbyDaemon:
    """A warm standby: applies shipped frames until promoted.

    ``service_kwargs`` are the :class:`TerpService` constructor
    arguments the promoted daemon will use (minus ``port`` and
    ``pool_dir``, which promotion supplies); they should mirror the
    dead primary's configuration.
    """

    def __init__(self, pool_dir: os.PathLike, *,
                 host: str = "127.0.0.1", port: int = 0,
                 service_kwargs: Optional[Dict[str, Any]] = None,
                 quiet: bool = True) -> None:
        self.pool_dir = Path(pool_dir)
        self.host = host
        self.port = port
        self.service_kwargs = dict(service_kwargs or {})
        self.quiet = quiet
        self.applier = JournalApplier(self.pool_dir)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        #: live connections and the thread serving each; a serve
        #: thread deregisters its own on exit.
        self._conns: Dict[socket.socket, threading.Thread] = {}
        self._stop = threading.Event()
        self._promote_lock = threading.Lock()
        self.promoted = False
        self.service_thread: Optional[ServiceThread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> int:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(8)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name="terp-standby-accept", daemon=True)
        self._accept_thread.start()
        return self.port

    @property
    def bound_port(self) -> int:
        return self.port

    def stop(self) -> None:
        self._stop.set()
        if self._listener is not None:
            # shutdown() wakes a thread parked in accept(); close()
            # alone can leave it blocked until the join timeout.
            with suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)
            with suppress(OSError):
                self._listener.close()
            self._listener = None
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        serving = list(self._conns.items())
        for conn, _ in serving:
            # shutdown() unblocks a serve thread parked in recv(); it
            # closes and deregisters its own connection on the way out.
            with suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
        for _, thread in serving:
            thread.join(timeout=2.0)
        self.applier.close()
        if self.service_thread is not None:
            self.service_thread.stop()
            self.service_thread = None

    # -- promotion ---------------------------------------------------------

    def promote(self, port: int,
                overrides: Optional[Dict[str, Any]] = None) -> int:
        """Bring this standby up as a live terpd on ``port``.

        Recovery runs verbatim inside the TerpService constructor:
        the mirrored pool + session journal give the promoted daemon
        the dead primary's epoch, sessions, and audit history.
        Idempotent — a second promote returns the serving port.

        ``overrides`` arrive off the replication socket, so they are
        checked before anything changes: a refused promote leaves the
        standby applying.  One that fails later — recovery, or the
        bind — leaves it unpromoted with the applier closed and no
        service behind, so the next promote tries again.

        A standby is an applier until this call: the serving stack is
        imported here, first, so an import that fails refuses the
        promote before the applier closes.
        """
        from repro.service.server import ServiceThread, TerpService

        unknown = set(overrides or ()) - set(SETTINGS) - {"replicate_to"}
        if unknown:
            raise ReplicationWireError(
                f"promote overrides {sorted(unknown)}: not a daemon "
                f"setting")
        with self._promote_lock:
            if self.promoted:
                return self.service_thread.service.bound_port
            kwargs = {**self.service_kwargs, **(overrides or {}),
                      "port": port, "pool_dir": self.pool_dir}
            # Applies stop before recovery scans the pool — waiting
            # out the one in flight, whose home write would otherwise
            # land under recovery's feet: the promoted service is the
            # directory's only writer.
            self.applier.close()
            thread = ServiceThread(TerpService(**kwargs))
            service = thread.start()
            self.service_thread, self.promoted = thread, True
            if not self.quiet:
                print(f"standby promoted, terpd serving on "
                      f"tcp://{kwargs.get('host', '127.0.0.1')}:"
                      f"{service.bound_port}", flush=True)
            return service.bound_port

    # -- the replication socket --------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        # Its own reference: ``stop()`` clears ``self._listener`` while
        # this loop may be between two accepts.
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            thread = threading.Thread(
                target=self._serve, args=(conn,),
                name="terp-standby-conn", daemon=True)
            self._conns[conn] = thread
            thread.start()

    def _serve(self, conn: socket.socket) -> None:
        applier = self.applier
        # What a standby is sent, by kind; any other drops the link.
        # Once promoted the service owns the pool directory: the
        # closed applier raises on every apply frame, which drops a
        # straggling primary's link.
        handlers = {
            "hello": lambda m, _: self._hello(conn, m["version"]),
            "promote": lambda m, _: self._answer_promote(
                conn, m["port"], m["service"]),
            "reset": lambda m, _: applier.apply_reset(m["pmos"]),
            "header": lambda m, payload: applier.apply_header(
                m["pmo"], payload),
            "batch": lambda m, payload: applier.apply_batch(
                m["pmo"], m["seq"], m["prev"], m["pages"], payload,
                acked=lambda: send_msg(conn, {
                    "t": "ack", "pmo": m["pmo"], "seq": m["seq"]})),
            "journal": lambda m, _: applier.apply_journal(m["line"]),
            "destroy": lambda m, _: applier.apply_destroy(m["pmo"]),
        }
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stop.is_set() and (got := recv_msg(conn)):
                message, payload = got
                if message["t"] not in handlers:
                    raise ReplicationWireError(
                        f"a standby is not sent {message['t']!r}")
                handlers[message["t"]](message, payload)
                # Park for the next frame holding none of this one.
                del got, message, payload
        except (OSError, UnicodeError, ReplicationWireError,
                ReplicationChainError):
            # Drop the link; the primary reconnects and bootstraps.  A
            # UnicodeError: a name no pool file can be named after.
            return
        finally:
            self._conns.pop(conn, None)
            with suppress(OSError):
                conn.close()

    def _hello(self, conn: socket.socket, version: int) -> None:
        ok = version == REPL_PROTOCOL_VERSION
        send_msg(conn, {"t": "hello-ack", "ok": ok,
                        "version": REPL_PROTOCOL_VERSION})
        if not ok:
            raise ReplicationWireError(
                f"replication protocol {version} unsupported")

    def _answer_promote(self, conn: socket.socket, port: int,
                        service: Dict[str, Any]) -> None:
        """The promoter must learn why a promote failed (it falls back
        to a cold restart), and this standby must keep listening."""
        try:
            reply = {"t": "promoted", "port": self.promote(port, service)}
        except Exception as exc:  # noqa: BLE001 — told, not dropped
            reply = {"t": "error", "error": repr(exc)}
        send_msg(conn, reply)


def promote(host: str, repl_port: int, serve_port: int,
            **service_overrides: Any) -> int:
    """Ask the standby listening on ``host:repl_port`` to come up as a
    live terpd on ``serve_port`` (0 picks one) — the client of the
    standby's ``promote`` handler.  ``service_overrides`` replace the
    standby's own :class:`~repro.service.server.TerpService` arguments
    (the supervisor points ``replicate_to`` at the replacement
    standby).  Returns the port the promoted daemon serves on; raises
    — with the standby's reason, when it gave one — on anything but
    ``promoted``."""
    with socket.create_connection((host, repl_port),
                                  timeout=5.0) as sock:
        # The reply follows recovery: pool rescan + journal replay.
        sock.settimeout(STARTUP_TIMEOUT_S)
        send_msg(sock, {"t": "promote", "port": serve_port,
                        "service": service_overrides})
        got = recv_msg(sock)
    if got is None or got[0]["t"] != "promoted":
        raise ReplicationWireError(
            "standby did not confirm promotion: "
            f"{got[0].get('error', got[0]) if got else 'link closed'}")
    return got[0]["port"]
