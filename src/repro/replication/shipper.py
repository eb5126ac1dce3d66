"""The primary's half of journal shipping: :class:`JournalShipper`.

The store's commit (:meth:`~repro.pmo.store.PmoStore._commit_entry`)
calls here in two halves around its home-slot write:
:meth:`~JournalShipper.send_commit` *at* the batch's journal fsync —
the point from which a crash recovers it — and
:meth:`~JournalShipper.await_commit` after the home fsync, *before*
the batch's tickets retire.  While a standby is connected the shipper
is **semi-synchronous**: the commit parks until the standby acks the
batch journaled and fsynced — so a ``psync`` the client saw succeed is
recoverable from *two* pool directories, which is the
zero-acknowledged-write-loss guarantee (invariant I7) the failover
chaos leg checks — and the standby works during the primary's home
fsync, not after it.

The socket is corked (``TCP_CORK``): session-journal records are
mirrored fire-and-forget and wait in the *kernel's* send queue, and
every other frame is pushed at once (uncork, recork), taking the
queued records along in its segment — or the kernel's 200 ms cork
timer sends them on an idle link.  The kernel still sends that queue
when the process dies, so a mirrored record is at most one batch or
200 ms behind and is lost only with the host — or with a process
killed while a standby ack sat unread in its receive queue, when the
kernel resets the link instead of draining it.

Availability beats replication: a standby that is absent, dead, or
too slow degrades the shipper (batches counted ``dropped``, commits
proceed locally), never the primary.  A background dialer reconnects
and then **bootstraps**: the standby first receives a reconciling
``reset`` (the full registered set — it prunes mirrored files for
anything else, so a destroy the link was down for cannot resurrect),
then every registered PMO's durable header plus a snapshot batch of
its committed pages (``prev = -1`` resets the per-PMO chain),
followed by the session journal — so a standby attached mid-life
converges to *exactly* the primary's durable state, not just the
traffic after the connect.

Per PMO the shipped stream is a gapless, monotone chain: each batch
carries ``(prev, seq]`` and the applier refuses any link that does
not extend its last applied seq.  Replication lag (shipped minus
acked batches) is exported as the ``terpd_repl_lag_batches`` gauge,
which the replication bench samples to report ``lag p99``.
"""

from __future__ import annotations

import collections
import socket
import struct
import threading
import time
from typing import (
    TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple)

from repro.pmo.store import page_crcs
from repro.replication.wire import (
    REPL_PROTOCOL_VERSION, ReplicationWireError, recv_msg, send_msg)

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.pmo.store import PmoStore
    from repro.service.recovery import SessionJournal

__all__ = ["JournalShipper"]

#: How long a semi-sync commit waits for the standby's ack before
#: degrading (the commit itself is already locally durable).
DEFAULT_ACK_TIMEOUT_S = 5.0
#: Hold partial segments in the send queue until pushed (None where
#: unsupported: every frame then leaves at once).
TCP_CORK = getattr(socket, "TCP_CORK", None)
#: Background dialer retry period while the standby is unreachable.
DEFAULT_RECONNECT_S = 0.2


class JournalShipper:
    """Streams committed journal batches to a warm standby."""

    def __init__(self, host: str, port: int, *,
                 store: "PmoStore",
                 journal: Optional["SessionJournal"] = None,
                 metrics: Optional[Any] = None,
                 faults: Optional["FaultPlan"] = None,
                 sync: bool = True,
                 ack_timeout_s: float = DEFAULT_ACK_TIMEOUT_S,
                 reconnect_s: float = DEFAULT_RECONNECT_S) -> None:
        self.host = host
        self.port = port
        self._store = store
        self._journal = journal
        self._metrics = metrics
        self._faults = faults
        self.sync = sync
        self.ack_timeout_s = ack_timeout_s
        self.reconnect_s = reconnect_s
        #: serializes socket sends and the per-PMO chain state.
        self._send_lock = threading.RLock()
        #: ack bookkeeping (its lock is distinct from the send lock so
        #: a parked commit never blocks other sends).
        self._ack_cond = threading.Condition()
        self._sock: Optional[socket.socket] = None
        self.connected = False
        self._prev: Dict[str, int] = {}
        self._acked: Dict[str, int] = {}
        #: this link's batches awaiting their ack, oldest first, as
        #: ``[name, sent_ns]``.  The link is FIFO and the standby acks
        #: every batch in order, so an ack is always for the head —
        #: whose ``name`` is None if the PMO was destroyed meanwhile.
        self._inflight: Deque[List[Any]] = collections.deque()
        self._reader: Optional[threading.Thread] = None
        self._dialer: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._wake = threading.Event()
        #: lifetime tallies (also mirrored into the metrics registry).
        self.shipped = 0
        self.acked = 0
        self.dropped = 0
        self.reconnects = 0
        self.last_error = ""

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> bool:
        """Dial once synchronously (so a standby that is already up is
        bootstrapped before the primary serves its first request),
        then keep a background dialer for later reconnects.  Returns
        whether the first dial connected."""
        ok = self._connect_once()
        self._dialer = threading.Thread(
            target=self._dial_loop, name="terp-repl-dialer", daemon=True)
        self._dialer.start()
        return ok

    def stop(self) -> None:
        """Graceful shutdown: the store has already drained its group
        committer through :meth:`ship_commit`, so closing the socket
        here loses nothing acked."""
        self._stop.set()
        self._wake.set()
        self._drop_connection("shutdown")
        for thread in (self._dialer, self._reader):
            if thread is not None and thread is not \
                    threading.current_thread():
                thread.join(timeout=2.0)
        self._dialer = None

    def abort(self) -> None:
        """Crash-path shutdown: drop the socket mid-stream, exactly as
        a SIGKILL would."""
        self._stop.set()
        self._wake.set()
        self._drop_connection("crashed")

    # -- status ------------------------------------------------------------

    @property
    def lag(self) -> int:
        """Batches shipped but not yet acked by the standby."""
        return max(0, self.shipped - self.acked)

    def status(self) -> Dict[str, Any]:
        return {
            "target": f"{self.host}:{self.port}",
            "connected": self.connected,
            "sync": self.sync,
            "shipped": self.shipped,
            "acked": self.acked,
            "dropped": self.dropped,
            "lag": self.lag,
            "reconnects": self.reconnects,
            "last_error": self.last_error,
        }

    # -- shipping (called by the store and the session journal) ------------

    def ship_commit(self, name: str, pmo_id: int, seq: int,
                    pages: List[Tuple[int, bytes]]) -> None:
        """Ship one committed batch and park for the standby's ack:
        both halves back to back.  Never raises."""
        target = self.send_commit(name, pmo_id, seq, pages,
                                  page_crcs(pages))
        if target is not None:
            self.await_commit(name, target)

    def send_commit(self, name: str, pmo_id: int, seq: int,
                    pages: List[Tuple[int, bytes]],
                    crcs: List[int]) -> Optional[int]:
        """The send half, called at the batch's journal fsync with no
        store lock held.  Returns the seq whose ack covers the batch
        (hand it to :meth:`await_commit`), or None when shipping
        degraded (counted ``dropped``).  Never raises."""
        if self._faults is not None:
            rule = self._faults.fire("repl.ship_stall")
            if rule is not None and rule.delay_ns > 0:
                time.sleep(rule.delay_ns / 1e9)
        with self._send_lock:
            if not self.connected:
                self._note_drop()
                return None
            prev = self._prev.get(name)
            try:
                if prev is None:
                    # First sight of this PMO on a live link (its
                    # header ship raced the connect): bootstrap it —
                    # the snapshot includes this very batch's pages
                    # and seq, which its committed journal holds.
                    target = self._bootstrap_pmo(name)
                    if target is None:
                        self._note_drop()
                    return target
                if seq <= prev:
                    # Already covered by a bootstrap snapshot that
                    # read the pool after this batch's journal fsync.
                    return prev
                self._send_batch(name, pmo_id, seq, prev, pages, crcs)
                self._prev[name] = seq
                return seq
            except (OSError, ReplicationWireError) as exc:
                self._drop_connection(f"ship: {exc}")
                self._note_drop()
                return None

    def await_commit(self, name: str, seq: int) -> None:
        """The wait half, called after the batch's home fsync: park
        until the standby has acked ``seq`` (sync mode), degrading on
        a timeout or a dropped link.  Never raises."""
        if not self.sync:
            return
        start = time.perf_counter_ns()
        acked = self._await_ack(name, seq)
        if self._metrics is not None:
            self._metrics.series["repl_ack_wait"].observe(
                time.perf_counter_ns() - start)
        if not acked:
            self._note_drop()

    def ship_header(self, name: str, header: bytes) -> None:
        """Mirror a PMO registration (fire-and-forget)."""
        with self._send_lock:
            if not self.connected:
                return
            if name in self._prev:
                # A bootstrap that raced this register already shipped
                # the header (plus a snapshot); re-shipping would
                # truncate the mirror behind the snapshot's back.
                return
            try:
                send_msg(self._sock, {"t": "header", "pmo": name},
                         header)
                self._push()
                self._prev.setdefault(name, 0)
            except (OSError, ReplicationWireError) as exc:
                self._drop_connection(f"header: {exc}")

    def ship_destroy(self, name: str) -> None:
        """Mirror a PMO destroy (fire-and-forget)."""
        with self._send_lock:
            self._prev.pop(name, None)
            if not self.connected:
                return
            try:
                send_msg(self._sock, {"t": "destroy", "pmo": name})
                self._push()
            except (OSError, ReplicationWireError) as exc:
                self._drop_connection(f"destroy: {exc}")
            with self._ack_cond:
                # Under the send lock, so every batch of this chain is
                # already queued: their acks, still to come, must not
                # count for a re-created PMO's chain.
                self._acked.pop(name, None)
                for sent in self._inflight:
                    if sent[0] == name:
                        sent[0] = None

    def ship_journal(self, record: Dict[str, Any]) -> None:
        """Mirror one session-journal record (fire-and-forget: data
        durability is I7's contract; session identity rides along —
        corked in the kernel's send queue until the next pushed frame,
        the 200 ms cork timer, or the socket's close)."""
        with self._send_lock:
            if not self.connected:
                return
            try:
                send_msg(self._sock, {"t": "journal", "line": record})
            except (OSError, ReplicationWireError) as exc:
                self._drop_connection(f"journal: {exc}")

    # -- connection management ---------------------------------------------

    def _dial_loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self.reconnect_s)
            self._wake.clear()
            if self._stop.is_set():
                return
            if not self.connected:
                self._connect_once()

    def _connect_once(self) -> bool:
        try:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=5.0)
        except OSError as exc:
            self.last_error = f"connect: {exc}"
            return False
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_msg(sock, {"t": "hello",
                            "version": REPL_PROTOCOL_VERSION,
                            "role": "primary"})
            got = recv_msg(sock)
            if got is None or got[0].get("t") != "hello-ack":
                raise ReplicationWireError(
                    "standby did not answer the hello")
        except (OSError, ReplicationWireError) as exc:
            self.last_error = f"hello: {exc}"
            sock.close()
            return False
        sock.settimeout(None)
        # Bound *sends* without bounding recvs: a standby that stops
        # reading (stalled process, full TCP window) must degrade
        # shipping, never park a group commit in sendall() under the
        # send lock.  SO_SNDTIMEO is kernel-side and send-only, so the
        # ack reader keeps blocking in recv() while a timed-out send
        # raises OSError — which every ship path already treats as a
        # drop-connection event.
        timeout = max(0.001, self.ack_timeout_s)
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDTIMEO,
            struct.pack("ll", int(timeout),
                        int((timeout - int(timeout)) * 1e6)))
        if TCP_CORK is not None:
            sock.setsockopt(socket.IPPROTO_TCP, TCP_CORK, 1)
        with self._send_lock:
            self._sock = sock
            self._prev.clear()
            with self._ack_cond:
                self._acked.clear()
                # A new queue per link: a dropped link's reader, still
                # holding an ack, pops its own and never this one's.
                self._inflight = inflight = collections.deque()
            self.connected = True
            self.reconnects += 1
            try:
                self._bootstrap_all()
            except (OSError, ReplicationWireError) as exc:
                self._drop_connection(f"bootstrap: {exc}")
                return False
        self._reader = threading.Thread(
            target=self._read_acks, args=(sock, inflight),
            name="terp-repl-acks", daemon=True)
        self._reader.start()
        return True

    def _drop_connection(self, why: str,
                         sock: Optional[socket.socket] = None) -> None:
        with self._send_lock:
            if sock is not None and sock is not self._sock:
                # A stale ack-reader from an already-dropped link must
                # not tear down the connection the dialer has since
                # re-established.
                return
            if self._sock is not None:
                try:
                    # shutdown() unblocks a reader parked in recv();
                    # close() alone can leave it in the syscall.
                    self._sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    self._sock.close()
                except OSError:
                    pass
            self._sock = None
            if self.connected:
                self.last_error = why
            self.connected = False
        with self._ack_cond:
            self._inflight.clear()
            self._ack_cond.notify_all()
        self._set_lag_gauge()

    # -- bootstrap ---------------------------------------------------------

    def _bootstrap_all(self) -> None:
        """Converge a fresh link: a reconciling ``reset`` (the full
        registered set — the applier prunes everything else, so a
        destroy the link was down for cannot survive), then headers +
        committed snapshots for every registered PMO, then the whole
        session journal.  Runs under the send lock, so live commits
        and journal appends queue behind it and the standby sees one
        consistent prefix."""
        names = self._store.registered()
        send_msg(self._sock, {"t": "reset", "pmos": names})
        for name in names:
            self._bootstrap_pmo(name, raise_errors=True)
        if self._journal is not None:
            for record in self._journal.read_records():
                send_msg(self._sock, {"t": "journal", "line": record})
        self._push()

    def _bootstrap_pmo(self, name: str, *,
                       raise_errors: bool = False) -> Optional[int]:
        """Ship one PMO's header + committed pages; returns the
        snapshot's seq (the new chain head), or None if degraded."""
        try:
            header, seq, pages = self._store.committed_state(name)
        except Exception:
            # Unregistered mid-flight (destroy raced): nothing to ship.
            return None
        try:
            send_msg(self._sock, {"t": "header", "pmo": name}, header)
            self._send_batch(name, 0, seq, -1, pages, page_crcs(pages))
        except (OSError, ReplicationWireError):
            if raise_errors:
                raise
            self._drop_connection("bootstrap")
            return None
        self._prev[name] = seq
        return seq

    # -- internals ---------------------------------------------------------

    def _send_batch(self, name: str, pmo_id: int, seq: int, prev: int,
                    pages: List[Tuple[int, bytes]],
                    crcs: List[int]) -> None:
        meta = [[index, crc] for (index, _), crc in zip(pages, crcs)]
        payload = b"".join(page for _, page in pages)
        with self._ack_cond:
            self._inflight.append([name, time.perf_counter_ns()])
        send_msg(self._sock, {"t": "batch", "pmo": name,
                              "pmo_id": pmo_id, "seq": seq,
                              "prev": prev, "pages": meta}, payload)
        self._push()
        self.shipped += 1
        if self._metrics is not None:
            self._metrics.series["repl_batches_shipped"].inc()
        self._set_lag_gauge()

    def _push(self) -> None:
        """Send the frame just queued now, with every mirrored record
        corked ahead of it, in as few segments as they fill."""
        if TCP_CORK is not None:
            self._sock.setsockopt(socket.IPPROTO_TCP, TCP_CORK, 0)
            self._sock.setsockopt(socket.IPPROTO_TCP, TCP_CORK, 1)

    def _await_ack(self, name: str, seq: int) -> bool:
        deadline = time.monotonic() + self.ack_timeout_s
        with self._ack_cond:
            while self._acked.get(name, -1) < seq:
                if not self.connected:
                    return False
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.last_error = (f"ack timeout: {name} seq {seq}"
                                       f" after {self.ack_timeout_s}s")
                    return False
                self._ack_cond.wait(remaining)
            return True

    def _read_acks(self, sock: socket.socket,
                   inflight: Deque[List[Any]]) -> None:
        while not self._stop.is_set():
            try:
                got = recv_msg(sock)
            except (OSError, ReplicationWireError) as exc:
                self._drop_connection(f"ack stream: {exc}", sock)
                return
            if got is None:
                self._drop_connection("standby closed the link", sock)
                return
            header, _ = got
            if header.get("t") != "ack":
                continue
            name = str(header.get("pmo", ""))
            seq = int(header.get("seq", -1))
            with self._ack_cond:
                chain, t0 = inflight.popleft() if inflight else (None, 0)
                if chain == name and seq > self._acked.get(name, -1):
                    self._acked[name] = seq
                self.acked += 1
                self._ack_cond.notify_all()
            if self._metrics is not None:
                self._metrics.note_ship_ack(
                    time.perf_counter_ns() - t0 if t0 else 0)
            self._set_lag_gauge()

    def _note_drop(self) -> None:
        self.dropped += 1
        if self._metrics is not None:
            self._metrics.series["repl_batches_dropped"].inc()

    def _set_lag_gauge(self) -> None:
        if self._metrics is not None:
            self._metrics.series["repl_lag"].set(self.lag)
