"""terpd — the asyncio PMO daemon.

:class:`TerpService` multiplexes many client sessions onto one shared
:class:`~repro.pmo.api.PmoLibrary` whose semantics engine is the
hardware :class:`~repro.arch.cond_engine.TerpArchEngine`: every remote
attach/detach flows through the CONDAT/CONDDT cases, so window
combining, the circular buffer, and the permission matrix operate
*across* clients exactly as they do across threads in the paper.

Temporal enforcement is two-layered:

* **engine sweep** — the arch engine's periodic sweep closes expired
  delayed-detach windows and re-randomizes held PMOs (Figure 7a),
  driven here by a background asyncio task instead of a hardware timer;
* **session-scoped enforcement** — each session carries a wall-clock
  exposure budget; the same background task force-detaches any PMO a
  session has held past its budget, delivering a ``forced-detach``
  event on the session's next response.  A client that crashes or
  disconnects mid-attach is cleaned up the same way on connection
  teardown, so no remote failure mode can leave a window open.

The daemon's clock is the host's monotonic clock (ns since service
construction); it drives the library clock through
:meth:`PmoLibrary.advance_to`, so exposure windows measured by the
runtime are real wall-clock durations.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.arch.circular_buffer import NUM_ENTRIES
from repro.arch.cond_engine import TerpArchEngine
from repro.core.errors import (
    InjectedCrash, IntegrityError, PmoError, TerpError)
from repro.core.exposure import ExposureMonitor
from repro.faults.plan import FaultPlan, Injection
from repro.mem.mpk import NUM_KEYS
from repro.core.permissions import Access
from repro.obs import Observability, TraceAnswer, trace_json
from repro.pmo.api import PmoLibrary
from repro.pmo.object_id import Oid
from repro.pmo.pool import mode_allows
from repro.pmo.store import DEFAULT_COMMIT_INTERVAL_US, CommitTicket, PmoStore
from repro.service import protocol
from repro.service.conn import Conn, FrontDoor, admit
from repro.service.launch import (
    DEFAULT_EW_TARGET_US, DEFAULT_SEED, DEFAULT_SESSION_EW_NS,
    DEFAULT_SESSION_LINGER_NS, DEFAULT_SWEEP_PERIOD_NS)
from repro.service.metrics import ServiceMetrics, metrics_report
from repro.service.ops import OPS, trace_limit
from repro.service.recovery import (
    RecoveryManager, RecoveryReport, SessionJournal)
from repro.service.sessions import SessionManager
from repro.service.sweeping import Sweeper


class _PendingFlush:
    """A psync whose fsyncs ride the group committer: the handler
    returns this marker under the library lock; the dispatcher awaits
    the ticket after the lock is released, so other sessions keep
    being served while the flusher thread pays the fsyncs."""

    __slots__ = ("base", "ticket")

    def __init__(self, base: int, ticket: CommitTicket) -> None:
        self.base = base
        self.ticket = ticket


async def _retired(ticket: CommitTicket) -> None:
    """Park until the flusher retires ``ticket``.  The retiring thread
    wakes this loop directly (one ``call_soon_threadsafe`` per
    ticket), so no thread parks per psync."""
    loop = asyncio.get_running_loop()
    retired = loop.create_future()

    def settle() -> None:
        if not retired.done():         # not timed out meanwhile
            retired.set_result(None)

    def wake(_: CommitTicket) -> None:
        try:
            loop.call_soon_threadsafe(settle)
        except RuntimeError:
            pass                       # the loop closed: stop / crash

    ticket.add_done_callback(wake)
    try:
        await asyncio.wait_for(retired, 60.0)    # ``ticket.wait``'s bound
    except asyncio.TimeoutError:
        raise PmoError("group commit ticket timed out") from None


class TerpService:
    """The terpd daemon: Table I over sockets, with exposure sweeping."""

    def __init__(self, *, host: str = "127.0.0.1",
                 port: Optional[int] = 0,
                 unix_path: Optional[str] = None,
                 ew_target_us: float = DEFAULT_EW_TARGET_US,
                 session_ew_ns: int = DEFAULT_SESSION_EW_NS,
                 sweep_period_ns: int = DEFAULT_SWEEP_PERIOD_NS,
                 cb_capacity: int = NUM_ENTRIES,
                 seed: int = DEFAULT_SEED,
                 obs: Optional[Observability] = None,
                 obs_enabled: bool = True,
                 faults: Optional[FaultPlan] = None,
                 session_linger_ns: int = DEFAULT_SESSION_LINGER_NS,
                 pool_dir: Optional[str] = None,
                 commit_interval_us: int = DEFAULT_COMMIT_INTERVAL_US,
                 shard_index: Optional[int] = None,
                 shard_count: int = 1,
                 replicate_to: Optional[str] = None) -> None:
        if port is None and unix_path is None:
            raise TerpError("need a TCP port and/or a unix socket path")
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.sweep_period_ns = sweep_period_ns
        #: Cluster identity: shard ``i`` of ``N`` allocates pmo_ids in
        #: the residue class ``i+1 (mod N)``, so the router can map an
        #: Oid's pool id back to its owning shard with arithmetic
        #: alone.  ``None`` means a standalone daemon (the default).
        self.shard_index = shard_index
        self.shard_count = shard_count
        #: The observability switchboard: metrics registry + tracer +
        #: exposure audit timeline, shared with the library and the
        #: runtime.  ``obs_enabled=False`` runs the daemon in the
        #: measured no-op mode (every recorder short-circuits).
        self.obs = obs if obs is not None else Observability(
            enabled=obs_enabled)
        self._tracer = self.obs.tracer if self.obs.enabled else None
        # Bound mapped PMOs by the MPK key pool as well as the CB:
        # the 16th simultaneous mapping must evict, not exhaust keys.
        engine = TerpArchEngine(int(ew_target_us * 1_000),
                                capacity=cb_capacity,
                                domain_capacity=NUM_KEYS - 1,
                                sweep_period_ns=sweep_period_ns)
        engine.tracer = self._tracer
        self.engine = engine
        #: Optional deterministic fault-injection plan.  One plan is
        #: shared by every layer: the library's storage sites, the
        #: engine's capacity sites, and the server's connection sites
        #: all consume arrivals from the same seeded schedule, and each
        #: firing lands on the audit timeline as a ``fault`` event.
        self.faults = faults
        if faults is not None:
            engine.faults = faults
            faults.on_fire = self._note_injection
        self.session_linger_ns = session_linger_ns
        #: Durable pool backend (``--pool-dir``): file-per-PMO storage
        #: with CRC trailers + double-write journal, a session journal
        #: for warm restart, and a scrub pass on every sweep.
        self.pool_dir = pool_dir
        self.store: Optional[PmoStore] = None
        self.session_journal: Optional[SessionJournal] = None
        self.recovery_report: Optional[RecoveryReport] = None
        self._epoch_wall_ns: Optional[int] = None
        if pool_dir is not None:
            self.store = PmoStore(pool_dir, faults=faults,
                                  commit_interval_us=commit_interval_us)
        self.lib = PmoLibrary(semantics=engine, seed=seed, strict=True,
                              obs=self.obs, faults=faults,
                              store=self.store)
        # The daemon reads exposure from the audit timeline, never from
        # the monitor's closed-window lists, and it runs for as long as
        # its tenants do: hold open windows only.
        self.lib.runtime.monitor = ExposureMonitor(keep_closed=False)
        if shard_index is not None:
            self.lib.manager.set_id_namespace(start=shard_index + 1,
                                              step=shard_count)
        self.metrics = ServiceMetrics(self.obs.registry)
        #: The session table and lifecycle: allocation, resume,
        #: release, journaling.
        self.sessions = SessionManager(
            lib=self.lib, metrics=self.metrics, obs=self.obs,
            default_ew_budget_ns=session_ew_ns, token_seed=seed)
        engine.on_forced_detach = self.sessions.on_engine_forced_detach
        self._t0 = time.monotonic_ns()
        #: Temporal enforcement: the session-budget + engine sweep, and
        #: with a durable pool the store's scrub pass.
        self.sweeper = Sweeper(
            sessions=self.sessions, sweep_period_ns=sweep_period_ns,
            session_linger_ns=session_linger_ns, now_ns=self.now_ns,
            faults=faults, tracer=self._tracer)
        self.front = FrontDoor(self._serve_burst, self._teardown,
                               self.metrics.wire.note_flush)
        self._sweeper: Optional[asyncio.Task] = None
        self._stopped = False
        self._crashed = False
        self.bound_port: Optional[int] = None
        #: dispatch, derived from the op table: one ``_op_<name>``
        #: handler and one precomputed span name per row.
        self._handlers: Dict[str, Tuple[
            Callable[[Conn, Dict], Any], str]] = {
            name: (getattr(self, f"_op_{name}"), f"terpd.{name}")
            for name in OPS}
        if self.store is not None:
            # Warm restart happens *here*, before any socket binds:
            # the pool is rescanned and verified, surviving sessions
            # are restored (lingering, same resume token), and every
            # holding open at the crash is force-detached on the
            # unbroken exposure clock — all before the first request.
            self.session_journal = SessionJournal(pool_dir)
            self.sessions.journal = self.session_journal
            self.recovery_report = RecoveryManager(self).recover()
        #: Journal shipping (``--replicate-to host:port``): every
        #: post-fsync group-commit batch streams to a warm standby,
        #: semi-synchronously — a psync acked to the client is applied
        #: on the standby too (invariant I7).  Built after recovery so
        #: the first bootstrap ships the recovered (compacted) state.
        self.replicate_to = replicate_to
        self.shipper: Optional[Any] = None
        if replicate_to is not None:
            if self.store is None:
                raise TerpError("--replicate-to requires --pool-dir "
                                "(only durable state can be shipped)")
            from repro.replication.shipper import JournalShipper
            peer_host, _, peer_port = replicate_to.rpartition(":")
            self.shipper = JournalShipper(
                peer_host or "127.0.0.1", int(peer_port),
                store=self.store, journal=self.session_journal,
                metrics=self.metrics)
            self.store.shipper = self.shipper
            self.session_journal.mirror = self.shipper.ship_journal

    # -- clock ---------------------------------------------------------------

    def wall_clock_ns(self) -> int:
        return time.time_ns()

    def adopt_epoch(self, epoch_wall_ns: int) -> None:
        """Pin the service clock to a persisted wall-clock epoch.

        With a pool directory the exposure clock is
        ``wall_clock - epoch``: a restart on the same pool resumes the
        *same* time axis, so exposure accrued before the crash and
        time elapsed during the outage both count.
        """
        self._epoch_wall_ns = epoch_wall_ns

    def now_ns(self) -> int:
        """Nanoseconds on the service's exposure clock.

        Monotonic since construction for an in-memory daemon; with a
        durable pool, wall-clock since the pool's persisted epoch —
        continuous across daemon restarts.
        """
        if self._epoch_wall_ns is not None:
            return max(0, time.time_ns() - self._epoch_wall_ns)
        return time.monotonic_ns() - self._t0

    # -- fault-injection hook -------------------------------------------------

    def _note_injection(self, injection: Injection) -> None:
        """Every fired rule lands on the audit timeline, so a chaos
        run's faults and its exposure events share one record."""
        self.obs.audit.record_fault(
            injection.site, injection.kind, self.lib.clock_ns,
            detail=f"rule {injection.rule_index} "
                   f"arrival {injection.arrival}")
        self.metrics.note_fault(injection.site)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind the configured endpoints and launch the sweeper."""
        self.bound_port = await self.front.listen(self.host, self.port,
                                                  self.unix_path)
        if self.shipper is not None:
            # The first dial (and bootstrap) happens off the event
            # loop; an unreachable standby degrades to the background
            # dialer, never delays serving.
            await asyncio.get_running_loop().run_in_executor(
                None, self.shipper.start)
        self._sweeper = asyncio.create_task(self.sweeper.loop())

    async def stop(self) -> None:
        """Graceful shutdown: stop sweeping, detach every session."""
        if self._stopped:
            return
        await self._stop_sweeping()
        self.front.stop_listening()
        with self.lib.lock:
            now = self.lib.advance_to(self.now_ns())
            for session in self.sessions:
                self.sessions.end(session, now, reason="shutdown")
            self.lib.runtime.finish(self.lib.clock_ns)
        if self.store is not None:
            # Drain the group committer: every submitted psync batch
            # reaches disk before the journal handle goes away.
            self.store.close()
        if self.shipper is not None:
            # After the drain: every committed batch already shipped.
            self.shipper.stop()
        if self.session_journal is not None:
            self.session_journal.close()
        await self.front.close()

    async def _stop_sweeping(self) -> None:
        self._stopped = True
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass

    async def crash(self) -> None:
        """Die like ``kill -9``: sockets drop, nothing is released.

        The abrupt counterpart of :meth:`stop` for in-process restart
        tests: no session is detached, no journal record is written,
        no flush happens — exactly the state a SIGKILL leaves.  The
        session journal and the durable pool files already on disk are
        what recovery gets.
        """
        self._crashed = True
        await self._stop_sweeping()
        self.front.abort()
        if self.store is not None:
            # The flusher thread dies with the process: queued commit
            # batches are dropped (their psyncs never answered, so
            # nothing was promised) and the thread is joined so it
            # cannot race a restarted service's recovery scan.
            self.store.abort_commits()
        if self.shipper is not None:
            # The replication socket dies mid-stream, as SIGKILL would.
            self.shipper.abort()
        if self.session_journal is not None:
            # Only drops the file handle; appended records stay.
            self.session_journal.close()

    # -- connection handling ---------------------------------------------------

    async def _teardown(self, conn: Conn) -> None:
        """A connection ended: its session lets go of every window now
        and lingers for a resume — unless the daemon itself died."""
        if conn.session is not None and not self._crashed:
            with self.lib.lock:
                self.sessions.drop(conn, self.lib.advance_to(self.now_ns()))

    async def _serve_burst(self, conn: Conn,
                           frames: Iterator[Tuple[bytes, bytes]]) -> bool:
        """Run the request frames one read produced, in order, queueing
        each response frame; False when the connection must be severed
        instead (injected faults)."""
        faults = self.faults
        for request, sidecar in frames:
            payload = protocol.decode_frame(request)
            if faults is not None and \
                    faults.fire("server.conn_drop") is not None:
                # The connection dies before the request runs: the
                # client's retry re-sends it and it executes once.
                return False
            if faults is not None and \
                    faults.fire("server.session_crash") is not None:
                # The session's handler "process" dies before the
                # request runs: windows force-closed, identity gone
                # for good (no resume), connection severed.
                self._crash_session(conn)
                return False
            conn.bins = protocol.BinReader(sidecar)
            conn.bin_out = []
            try:
                if protocol.is_batch(payload):
                    self.metrics.series["batches"].inc()
                    # Each response is encoded exactly once, in
                    # _dispatch; body_parts splices the encoded items.
                    # A trace among them is joined: a batch's items are
                    # spliced whole.  A read may take what the items
                    # before it left of the frame; one that would take
                    # more is refused (it runs again if re-sent),
                    # carrying the events it drained.
                    items: List[bytes] = []
                    room = protocol.MAX_FRAME_BYTES - 2   # the brackets
                    for one in payload:
                        items.append(protocol.join_body(
                            await self._dispatch(conn, one, room)))
                        room -= len(items[-1]) + 1      # and a comma
                    body = protocol.body_parts(items)
                else:
                    body = await self._dispatch(conn, payload)
            except InjectedCrash:
                # A crash-kind storage fault mid-request: no response
                # ever leaves; the crash-torture harness snapshots the
                # persistent bytes at this instant.
                self._crash_session(conn)
                return False
            out = conn.bin_out
            frame = protocol.frame_from_body(
                body, b"".join(out) if out else None)
            if faults is not None:
                rule = faults.fire("server.delay_response")
                if rule is not None and rule.delay_ns > 0:
                    conn.flush()
                    await asyncio.sleep(rule.delay_ns / 1e9)
                rule = faults.fire("server.partial_frame")
                if rule is not None:
                    # The request executed; only a truncated frame
                    # escapes.  The retried request hits the replay
                    # cache, not a second execution.
                    await conn.send(
                        bytes(frame)[:max(1, len(frame) // 2)])
                    return False
            await conn.send(frame)
        return True

    def _crash_session(self, conn: Conn) -> None:
        """An injected mid-request crash: the session dies for good."""
        session = conn.session
        conn.session = None
        if session is not None and not session.closed:
            with self.lib.lock:
                self.sessions.end(session,
                                  self.lib.advance_to(self.now_ns()),
                                  reason="session crashed (injected)")

    # -- dispatch --------------------------------------------------------------

    async def _dispatch(self, conn: Conn, req: Any,
                        room: int = protocol.MAX_FRAME_BYTES
                        ) -> List[Any]:
        """Run one request; returns the *encoded* response body, as
        :func:`~repro.service.protocol.body_parts` for the frame's one
        join — a ``readonly`` op's of at most ``room`` bytes, or
        refused.

        Encoding here (rather than in the serve loop) lets the replay
        cache hold pre-encoded bytes and lets a batch splice its parts
        without a second ``json.dumps`` pass; a handler may return its
        result as a sized part (``trace``).  Binary results land on
        ``conn.bin_out``; an error rolls the chunk list back to this
        request's start so a failed op never leaks sidecar bytes.
        """
        t0 = time.perf_counter_ns()
        rid, op = protocol.head(req)
        session = conn.session
        bin_start = len(conn.bin_out)
        span = "terpd.?"
        events: List[dict] = []
        try:
            # First, even for a replay: this takes the request's bytes
            # off the frame's sidecar.
            spec, args = admit(req, conn.bins,
                               has_session=session is not None)
            if session is not None and isinstance(rid, int):
                # Idempotent replay: a request the server already
                # executed (the drop ate the response) returns its
                # original response instead of running twice.
                cached = session.replay_get(rid)
                if cached is not None:
                    self.metrics.series["replays_served"].inc()
                    body, chunks = cached
                    conn.bin_out.extend(chunks)
                    return [body]
            handler, span = self._handlers[spec.name]
            with self.lib.lock:
                self.lib.advance_to(self.now_ns())
                result = handler(conn, args)
            if isinstance(result, _PendingFlush):
                # The library lock is already released; the event loop
                # keeps serving other connections while the flusher
                # batches — and the burst's earlier responses leave
                # first, rather than wait behind this request's fsync.
                if not result.ticket.done:
                    conn.flush()
                    await _retired(result.ticket)
                result = {"flushed": result.base + result.ticket.wait(0)}
            if spec.bin_result is not None:
                # ...and the other way: the result's bytes leave on the
                # response sidecar, their count in their slot.
                data = result[spec.bin_result]
                conn.bin_out.append(data)
                result[spec.bin_result] = len(data)
            # Hello binds a session; goodbye's response still carries
            # the events of the one it ended.
            session = conn.session or session
            events = session.drain_events() if session else []
            ok = True
            body = protocol.body_parts(protocol.response(
                rid, spec.name, result, events),
                room if spec.readonly else protocol.MAX_FRAME_BYTES)
            if session is not None and isinstance(rid, int) and \
                    not (spec.readonly and not events):
                # Cached only where running twice could be observed:
                # a success whose ``OPS`` row is not ``readonly``, or
                # one that drained events.  A retried failure or plain
                # read runs again (after a drop: on closed windows).
                # A trace that drained events is joined for it, and
                # sent as joined.
                body = [protocol.join_body(body)]
                session.replay_put(rid, body[0],
                                   tuple(conn.bin_out[bin_start:]))
        except InjectedCrash:
            raise                      # the "process" dies mid-request
        except (TerpError, KeyError, TypeError, ValueError) as exc:
            del conn.bin_out[bin_start:]
            # A body refused once sized (an oversize ``trace``, or
            # one past what its batch left) had already taken the
            # session's events: they ride here.
            if session is not None:
                events += session.drain_events()
            body = [protocol.refusal(rid, exc, events)]
            ok = False
        latency = time.perf_counter_ns() - t0
        self.metrics.note_request(op or "?", latency, ok=ok)
        if self._tracer is not None:
            self._tracer.record_since(span, t0, ok=ok)
        if session is not None:
            session.metrics.requests += 1
            if not ok:
                session.metrics.errors += 1
        return body

    # -- ops: session ----------------------------------------------------------

    def _op_hello(self, conn: Conn, args: Dict) -> Dict:
        return self.sessions.hello(args, conn)

    def _op_goodbye(self, conn: Conn, args: Dict) -> Dict:
        return {"released": self.sessions.end(
            conn.session, self.lib.clock_ns, reason="goodbye", conn=conn)}

    def _op_ping(self, conn: Conn, args: Dict) -> Dict:
        return {"now_ns": self.lib.clock_ns,
                "sessions": len(self.sessions)}

    def _op_metrics(self, conn: Conn, args: Dict) -> Dict:
        return metrics_report(self, raw=bool(args.get("raw")),
                              session=conn.session)

    def _op_repl_status(self, conn: Conn, args: Dict) -> Dict:
        """Replication health: target, connectivity, lag, drops."""
        if self.shipper is None:
            return {"enabled": False}
        return {"enabled": True, **self.shipper.status()}

    def _op_trace(self, conn: Conn, args: Dict) -> TraceAnswer:
        """Observability read: recent spans + audit timeline events,
        snapshotted from the rings under their locks
        (:func:`repro.obs.trace_json`); the answer is sized, then
        written a chunk at a time, with no lock held."""
        kind = args.get("kind")
        name = args.get("name")
        return trace_json(
            self.obs.tracer, self.obs.audit, limit=trace_limit(args),
            pmo=args.get("pmo"),
            kind=str(kind) if kind is not None else None,
            name=str(name) if name is not None else None,
            now_ns=self.lib.clock_ns)

    def _op_prometheus(self, conn: Conn, args: Dict) -> Dict:
        """The registry in Prometheus text exposition format."""
        return {"text": self.obs.registry.prometheus_text()}

    # -- ops: namespace --------------------------------------------------------

    def _op_create(self, conn: Conn, args: Dict) -> Dict:
        session = conn.session
        pmo = self.lib.PMO_create(str(args["name"]), int(args["size"]),
                                  int(args["mode"]),
                                  owner=session.user)
        return {"pmo": pmo.pmo_id, "name": pmo.name,
                "size": pmo.size_bytes}

    def _op_open(self, conn: Conn, args: Dict) -> Dict:
        session = conn.session
        access = Access.parse(str(args["access"]))
        pmo = self.lib.PMO_open(str(args["name"]), access,
                                user=session.user)
        return {"pmo": pmo.pmo_id, "name": pmo.name,
                "size": pmo.size_bytes}

    def _op_close(self, conn: Conn, args: Dict) -> Dict:
        pmo = self.lib.manager.lookup(str(args["name"]))
        self.lib.PMO_close(pmo)
        return {"closed": pmo.pmo_id}

    def _op_destroy(self, conn: Conn, args: Dict) -> Dict:
        session = conn.session
        name = str(args["name"])
        pmo = self.lib.manager.lookup(name)
        if session.user not in (pmo.owner, "root"):
            raise PmoError(f"user {session.user!r} may not destroy "
                           f"PMO {name!r} owned by {pmo.owner!r}")
        self.lib.PMO_destroy(name)
        return {"destroyed": name}

    # -- ops: attach / detach ----------------------------------------------------

    def _op_attach(self, conn: Conn, args: Dict) -> Dict:
        session = conn.session
        access = Access.parse(str(args["access"]))
        pmo = self.lib.manager.lookup(str(args["name"]))
        if not mode_allows(pmo.mode,
                           is_owner=(session.user == pmo.owner),
                           requested=access):
            raise PmoError(f"user {session.user!r} denied {access} on "
                           f"PMO {pmo.name!r}")
        if pmo.quarantined and access & Access.WRITE:
            # A quarantined PMO (unrepairable integrity failure) stays
            # readable for forensics but never writable.
            raise IntegrityError(
                f"PMO {pmo.name!r} is quarantined "
                f"({pmo.quarantine_reason}); write attach denied",
                pmo=pmo.name)
        now = self.lib.clock_ns
        result = self.lib.runtime.attach(session.entity_id, pmo, access,
                                         now)
        if not result.ok:
            raise PmoError(f"attach failed: {result.decision.reason}")
        session.note_attach(pmo.pmo_id, now)
        self.sessions.record("attach", session, now, pmo_id=pmo.pmo_id,
                             pmo=pmo.name)
        self.metrics.series["attaches"].inc()
        return {"outcome": result.decision.outcome.value,
                "reason": result.decision.reason}

    def _op_detach(self, conn: Conn, args: Dict) -> Dict:
        session = conn.session
        pmo = self.lib.manager.lookup(str(args["name"]))
        if pmo.pmo_id in session.forced_pmos:
            # The sweeper already detached this on the session's
            # behalf and the session's own detach raced it — a defined
            # silent outcome, mirroring the engine's forced-pair rule.
            session.forced_pmos.discard(pmo.pmo_id)
            return {"outcome": "silent",
                    "reason": "already force-detached by sweeper"}
        decision = self.lib.runtime.detach(session.entity_id, pmo,
                                           self.lib.clock_ns)
        session.note_detach(pmo.pmo_id)
        self.sessions.record("detach", session, self.lib.clock_ns,
                             pmo_id=pmo.pmo_id, pmo=pmo.name)
        self.metrics.series["detaches"].inc()
        return {"outcome": decision.outcome.value,
                "reason": decision.reason}

    # -- ops: heap + data --------------------------------------------------------

    def _op_pmalloc(self, conn: Conn, args: Dict) -> Dict:
        pmo = self.lib.manager.lookup(str(args["name"]))
        oid = self.lib.pmalloc(pmo, int(args["size"]))
        return {"oid": oid.pack()}

    def _op_pfree(self, conn: Conn, args: Dict) -> Dict:
        self.lib.pfree(Oid.unpack(int(args["oid"])))
        return {"freed": True}

    def _op_read(self, conn: Conn, args: Dict) -> Dict:
        session = conn.session
        n = int(args["n"])
        with self.lib.thread(session.entity_id):
            data = self.lib.read(Oid.unpack(int(args["oid"])), n)
        session.metrics.bytes_read += len(data)
        return {"data": data}

    def _op_write(self, conn: Conn, args: Dict) -> Dict:
        session = conn.session
        data = args["data"]
        with self.lib.thread(session.entity_id):
            self.lib.write(Oid.unpack(int(args["oid"])), data)
        session.metrics.bytes_written += len(data)
        return {"n": len(data)}

    def _op_read_u64(self, conn: Conn, args: Dict) -> Dict:
        with self.lib.thread(conn.session.entity_id):
            value = self.lib.read_u64(Oid.unpack(int(args["oid"])))
        conn.session.metrics.bytes_read += 8
        return {"value": value}

    def _op_write_u64(self, conn: Conn, args: Dict) -> Dict:
        with self.lib.thread(conn.session.entity_id):
            self.lib.write_u64(Oid.unpack(int(args["oid"])),
                               int(args["value"]))
        conn.session.metrics.bytes_written += 8
        return {"written": True}

    def _op_psync(self, conn: Conn, args: Dict) -> Any:
        pmo = self.lib.manager.lookup(str(args["name"]))
        base, ticket = self.lib.psync_submit(pmo)
        if ticket is None:
            return {"flushed": base}
        return _PendingFlush(base, ticket)

    def _op_tx_begin(self, conn: Conn, args: Dict) -> Dict:
        pmo = self.lib.manager.lookup(str(args["name"]))
        return {"tx": pmo.begin_tx()}

    def _op_tx_abort(self, conn: Conn, args: Dict) -> Dict:
        pmo = self.lib.manager.lookup(str(args["name"]))
        pmo.abort_tx()
        return {"aborted": True}


class ServiceThread:
    """Run a :class:`TerpService` on its own event loop in a thread.

    The harness the example, the benchmark, and the tests share: the
    caller's thread stays synchronous (driving
    :class:`~repro.service.client.SyncTerpClient`s) while the daemon
    serves from a background loop.
    """

    def __init__(self, service: TerpService) -> None:
        self.service = service
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> TerpService:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="terpd")
        self._thread.start()
        if not self._started.wait(timeout):
            raise TerpError("terpd thread failed to start in time")
        if self._error is not None:
            raise TerpError(f"terpd failed to start: {self._error}")
        return self.service

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:   # surface to start()/stop()
            self._error = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.service.start()
        except BaseException:
            # Bound nothing, promised nothing: let go of the pool, so
            # whoever retries on it is its only owner.
            await self.service.crash()
            raise
        self._started.set()
        await self._stop.wait()
        if not self.service._crashed:
            await self.service.stop()

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TerpError("terpd thread did not stop in time")
        self._thread = None

    def kill(self, timeout: float = 10.0) -> None:
        """SIGKILL the daemon, in-process: abrupt death, no shutdown.

        Sessions are not released, the session journal gets no
        goodbye records, nothing is flushed — the pool directory is
        left exactly as the last ``psync`` put it.  Restart by
        constructing a fresh :class:`TerpService` on the same
        ``pool_dir``.
        """
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            future = asyncio.run_coroutine_threadsafe(
                self.service.crash(), self._loop)
            try:
                future.result(timeout)
            except Exception:
                pass
        self.stop(timeout)

    def __enter__(self) -> TerpService:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
