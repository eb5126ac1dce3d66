"""Session bookkeeping: remote clients as TERP entities.

Every connection that says ``hello`` gets a :class:`Session`.  The
session's ``entity_id`` is what the shared :class:`~repro.core.runtime
.TerpRuntime` sees as the "thread" making attach/detach calls — the
paper's permission groups span threads, processes, and users
(Definition 2), and a remote session is exactly such an entity: it
holds thread-level permission grants in the MPK domains, its
attach/detach pairs obey the EW-conscious no-overlap rule, and its
exposure is swept like any local thread's.

A session also carries its *exposure budget*: the wall-clock EW target
after which the daemon's sweeper force-detaches anything the session
still holds.  The budget is the server default unless the client
negotiated a tighter one in ``hello`` (never a looser one — a tenant
cannot opt out of temporal protection).

Robustness state (the chaos-tolerant parts):

* **resume token** — issued at ``hello``; a client whose connection
  dropped proves identity with it to rebind the same session.  A
  dropped session *lingers* (identity, replay cache, pending events)
  for ``linger`` long, but its exposure windows are force-closed at
  the instant of the drop — resumption restores identity, never
  access.
* **replay cache** — the last successful responses, keyed by request
  id, to ops whose ``OPS`` row is not ``readonly`` (and any response
  that drained events).  A retry of one (the drop ate the response,
  not the request) gets the original back instead of a second
  execution; a retried plain read runs again, so none is kept.
* **bounded event queue** — out-of-band notifications are capped;
  under backpressure the oldest are dropped and counted rather than
  growing without bound.

One owner per concept: :class:`Session` is one client's state;
:class:`SessionRegistry` is the table of them — id allocation, lookup,
and the one ``hello`` (version check, resume-token verification, fresh
allocation) that the daemon and the cluster router both serve;
:class:`SessionManager` is the daemon's registry — the same table,
tied to a library: it releases a departing session's holdings, takes
the arch engine's forced-detach callback, journals for warm restart
and keeps the session series.  The daemon, the sweeper and recovery
all operate through that one object, and a cluster shard composes
exactly the same pieces.

Locking: every :class:`SessionManager` method that touches runtime
state assumes the caller holds ``lib.lock`` (the daemon's dispatch and
teardown paths already do); journal appends are internally serialized
by the journal itself.
"""

from __future__ import annotations

import itertools
import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Deque, Dict, Hashable, Iterator, List, Optional,
    Set, Tuple)

from repro.core.errors import Busy, PmoError, TerpError
from repro.service.metrics import ServiceMetrics, SessionMetrics
from repro.service.protocol import PROTOCOL_VERSION

if TYPE_CHECKING:
    from repro.obs import Observability
    from repro.pmo.api import PmoLibrary
    from repro.service.recovery import SessionJournal

#: Responses (never a plain ``readonly`` one) kept per session for replay.
REPLAY_CACHE_SIZE = 256
#: Pending out-of-band events kept per session (backpressure bound).
MAX_PENDING_EVENTS = 256


@dataclass
class Session:
    """One connected client: identity, holdings, pending events."""

    session_id: int
    entity_id: int
    user: str
    ew_budget_ns: int
    #: proves identity on resume; never logged, never in metrics.
    resume_token: str = ""
    #: pmo_id -> attach timestamp (service clock, ns); the sweeper's
    #: input for session-scoped exposure enforcement.
    attached_at: Dict[int, int] = field(default_factory=dict)
    #: out-of-band notifications delivered with the next response —
    #: bounded: the oldest are dropped at the cap.
    events: Deque[dict] = field(
        default_factory=lambda: deque(maxlen=MAX_PENDING_EVENTS))
    #: PMOs the sweeper detached on this session's behalf; the
    #: session's own (racing) detach of these is a silent no-op.
    forced_pmos: Set[int] = field(default_factory=set)
    metrics: SessionMetrics = field(default_factory=SessionMetrics)
    closed: bool = False
    #: None while a connection is bound; the drop timestamp (service
    #: clock) while lingering for resume.
    disconnected_at_ns: Optional[int] = None
    #: bumped on every (re)bind; a connection only tears the session
    #: down if it still owns the latest bind.
    generation: int = 0
    #: request id -> (encoded response body, binary sidecar chunks),
    #: for idempotent replay.  Caching the pre-encoded bytes means a
    #: replay hit costs zero ``json.dumps`` work; the chunks are there
    #: for a read whose response also carried events.
    replay: "OrderedDict[int, tuple]" = field(
        default_factory=OrderedDict)

    # -- exposure bookkeeping ---------------------------------------------

    def note_attach(self, pmo_id: int, now_ns: int) -> None:
        self.attached_at[pmo_id] = now_ns
        self.forced_pmos.discard(pmo_id)
        self.metrics.attaches += 1

    def note_detach(self, pmo_id: int) -> None:
        self.attached_at.pop(pmo_id, None)
        self.metrics.detaches += 1

    def note_forced_detach(self, pmo_id: int, pmo_name: str,
                           now_ns: int, reason: str) -> None:
        self.attached_at.pop(pmo_id, None)
        self.forced_pmos.add(pmo_id)
        self.metrics.forced_detaches += 1
        self.events.append({
            "event": "forced-detach",
            "pmo": pmo_name,
            "pmo_id": pmo_id,
            "at_ns": now_ns,
            "reason": reason,
        })

    def expired(self, now_ns: int) -> List[int]:
        """PMO ids whose session exposure window has outlived the
        budget — the sweeper force-detaches exactly these."""
        return [pmo_id for pmo_id, since in self.attached_at.items()
                if now_ns - since >= self.ew_budget_ns]

    # -- events (bounded) --------------------------------------------------

    def drain_events(self) -> List[dict]:
        events = list(self.events)
        self.events.clear()
        return events

    # -- connection binding / resume ---------------------------------------

    @property
    def bound(self) -> bool:
        return not self.closed and self.disconnected_at_ns is None

    def bind(self) -> int:
        """(Re)bind a connection; returns the new bind generation."""
        self.disconnected_at_ns = None
        self.generation += 1
        return self.generation

    def unbind(self, now_ns: int) -> None:
        self.disconnected_at_ns = now_ns

    def linger_expired(self, now_ns: int, linger_ns: int) -> bool:
        return self.disconnected_at_ns is not None and \
            now_ns - self.disconnected_at_ns >= linger_ns

    # -- idempotent replay -------------------------------------------------

    def replay_put(self, rid: int, body: bytes,
                   chunks: tuple = ()) -> None:
        self.replay[rid] = (body, chunks)
        while len(self.replay) > REPLAY_CACHE_SIZE:
            self.replay.popitem(last=False)

    def replay_get(self, rid: int) -> Optional[tuple]:
        return self.replay.get(rid)


class SessionRegistry:
    """Allocates sessions and their entity ids; supports iteration.

    Entity ids start above any plausible in-process thread id so a
    hybrid embedding (local threads + remote sessions on one library)
    cannot collide.  ``len()`` counts *bound* sessions (what ``ping``
    and the sessions gauge report); iteration covers lingering ones
    too, so the sweeper can purge them.
    """

    FIRST_ENTITY_ID = 1 << 20
    #: cap on bound sessions for fresh hellos (``None``: no cap).
    max_sessions: Optional[int] = None

    def __init__(self, *, default_ew_budget_ns: int,
                 token_seed: Optional[int] = None) -> None:
        if default_ew_budget_ns <= 0:
            raise TerpError("default_ew_budget_ns must be positive")
        self.default_ew_budget_ns = default_ew_budget_ns
        self._sessions: Dict[int, Session] = {}
        self._next = itertools.count(1)
        self._token_rng = random.Random(token_seed)

    def create(self, *, user: str = "root",
               ew_budget_ns: Optional[int] = None) -> Session:
        sid = next(self._next)
        budget = self.default_ew_budget_ns
        if ew_budget_ns is not None:
            if ew_budget_ns <= 0:
                raise TerpError("session EW budget must be positive")
            # Tenants may tighten their exposure budget, never widen it.
            budget = min(budget, ew_budget_ns)
        session = Session(session_id=sid,
                          entity_id=self.FIRST_ENTITY_ID + sid,
                          user=user, ew_budget_ns=budget,
                          resume_token=f"{self._token_rng.getrandbits(128):032x}")
        self._sessions[sid] = session
        return session

    def hello(self, args: Dict[str, Any], *,
              current: Optional[Session] = None
              ) -> Tuple[Session, Dict[str, Any]]:
        """Serve one ``hello``: the daemon's and the router's shared
        front door.  Returns the bound session and the hello result.

        Validates the offered wire version (exactly
        :data:`PROTOCOL_VERSION`; absent counts as unsupported), then
        either rebinds a lingering session — ``resume`` + ``token``
        must match, and no live connection may still own it — or
        allocates a fresh one with the (clamped) ``ew_budget_us``.
        Resume restores *identity* (entity id, replay cache, pending
        events), never access: the drop already force-closed every
        window.  ``current`` is the connection's existing session, if
        any; ``max_sessions`` caps bound sessions for fresh hellos
        (``Busy`` is retryable, so well-behaved clients back off).
        """
        if current is not None:
            raise TerpError("connection already has a session")
        version = args.get("version")
        if version != PROTOCOL_VERSION:
            raise TerpError(f"protocol version {version} unsupported; "
                            f"server speaks {PROTOCOL_VERSION}")
        resume = args.get("resume")
        if resume is not None:
            session_id = int(resume)
            session = self.find(session_id)
            if session is None or session.closed:
                raise TerpError(f"no session {session_id} to resume")
            token = str(args.get("token", ""))
            if not token or token != session.resume_token:
                raise TerpError(f"bad resume token for session "
                                f"{session_id}")
            if session.bound:
                raise TerpError(f"session {session_id} is still bound "
                                "to a live connection")
        else:
            limit = self.max_sessions
            if limit is not None and len(self) >= limit:
                raise Busy(f"session table full ({limit}); "
                           "retry later")
            budget_us = args.get("ew_budget_us")
            session = self.create(
                user=str(args.get("user", "root")),
                ew_budget_ns=None if budget_us is None else int(
                    float(budget_us) * 1_000))
        session.bind()
        self.session_bound(session, resumed=resume is not None)
        return session, {"session": session.session_id,
                         "entity": session.entity_id,
                         "version": PROTOCOL_VERSION,
                         "ew_budget_us": session.ew_budget_ns / 1_000,
                         "token": session.resume_token,
                         "resumed": resume is not None}

    def session_bound(self, session: Session, *,
                      resumed: bool) -> None:
        """Called by :meth:`hello` once a session is (re)bound; the
        daemon's registry journals and counts here."""

    def restore(self, *, session_id: int, user: str,
                ew_budget_ns: int, resume_token: str,
                disconnected_at_ns: int) -> Session:
        """Re-materialize a journaled session at warm restart.

        The session keeps its original id, entity id, EW budget, and —
        critically — its resume token, so a client that outlived the
        daemon crash can rebind with the token it already holds.  The
        restored session starts *lingering* (no connection is bound);
        the normal linger purge applies from ``disconnected_at_ns``,
        which recovery sets to the restart instant.
        """
        if session_id in self._sessions:
            raise TerpError(f"session {session_id} already exists")
        session = Session(session_id=session_id,
                          entity_id=self.FIRST_ENTITY_ID + session_id,
                          user=user, ew_budget_ns=ew_budget_ns,
                          resume_token=resume_token,
                          disconnected_at_ns=disconnected_at_ns)
        self._sessions[session_id] = session
        # Keep id allocation ahead of every restored session.
        self._next = itertools.count(max(self._sessions) + 1)
        return session

    def get(self, session_id: int) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise TerpError(f"no session {session_id}")
        return session

    def find(self, session_id: int) -> Optional[Session]:
        return self._sessions.get(session_id)

    def remove(self, session_id: int) -> Optional[Session]:
        session = self._sessions.pop(session_id, None)
        if session is not None:
            session.closed = True
        return session

    def by_entity(self, entity_id: int) -> Optional[Session]:
        return self._sessions.get(entity_id - self.FIRST_ENTITY_ID)

    def lingering(self) -> List[Session]:
        return [s for s in self._sessions.values() if not s.bound]

    def __iter__(self) -> Iterator[Session]:
        return iter(list(self._sessions.values()))

    def __len__(self) -> int:
        return sum(1 for s in self._sessions.values() if s.bound)


class SessionManager(SessionRegistry):
    """The daemon's registry: sessions as TERP entities on one
    library — bind, release, force-detach, journal, count."""

    def __init__(self, *, lib: "PmoLibrary", metrics: ServiceMetrics,
                 obs: "Observability", default_ew_budget_ns: int,
                 token_seed: Optional[int] = None,
                 max_sessions: Optional[int] = None) -> None:
        super().__init__(default_ew_budget_ns=default_ew_budget_ns,
                         token_seed=token_seed)
        self.lib = lib
        self.metrics = metrics
        self.obs = obs
        self.max_sessions = max_sessions
        #: set by the daemon once the pool directory (and with it the
        #: session journal) exists; ``None`` for an in-memory daemon.
        self.journal: Optional["SessionJournal"] = None

    # -- open / resume / close ---------------------------------------------

    def session_bound(self, session: Session, *,
                      resumed: bool) -> None:
        """What only a daemon adds to ``hello``: a fresh session is
        journaled for warm restart, and the session series move."""
        if resumed:
            self.metrics.series["sessions_resumed"].inc()
        else:
            self.record("session", session, self.lib.clock_ns,
                        user=session.user, token=session.resume_token,
                        budget_ns=session.ew_budget_ns)
        self.metrics.series["sessions_opened"].inc()
        self.update_gauge()

    def close_session(self, session: Session, now_ns: int) -> None:
        """Remove a session for good: journal the close, drop it."""
        self.record("close", session, now_ns)
        self.remove(session.session_id)
        self.metrics.series["sessions_closed"].inc()
        self.update_gauge()

    def update_gauge(self) -> None:
        self.metrics.series["sessions"].set(len(self))

    # -- releasing holdings -------------------------------------------------

    def release(self, session: Session, now_ns: int, *,
                reason: str) -> int:
        """Detach everything a departing session still holds.

        A graceful departure (``goodbye``, shutdown) closes windows as
        ordinary detaches; an involuntary one (connection lost, an
        injected mid-request crash) closes them *forced*, with the
        reason on the audit timeline — the invariant checker insists
        every forced close is attributed.
        """
        forced = reason not in ("goodbye", "shutdown")
        released = self.lib.runtime.release_entity(
            session.entity_id, now_ns, forced=forced, reason=reason)
        for pmo_id, _ in released:
            try:
                name = self.lib.manager.get(pmo_id).name
            except PmoError:
                name = str(pmo_id)
            if forced:
                # Mark the pair forced so a *resumed* session's stale
                # detach is the defined silent no-op, and queue the
                # forced-detach event for its next response.
                session.note_forced_detach(pmo_id, name, now_ns, reason)
            else:
                session.note_detach(pmo_id)
            self.record("detach", session, now_ns, pmo_id=pmo_id,
                        pmo=name, forced=forced, reason=reason)
            if reason == "connection lost":
                self.metrics.series["disconnect_detaches"].inc()
        session.attached_at.clear()
        return len(released)

    def force_detach(self, session: Session, pmo_id: int,
                     now_ns: int) -> None:
        """Detach one expired holding on the session's behalf."""
        pmo = self.lib.manager.get(pmo_id)
        try:
            self.lib.runtime.detach(session.entity_id, pmo, now_ns,
                                    forced=True,
                                    reason="session EW budget elapsed")
        except TerpError:
            # The pair may already be gone (engine eviction raced us);
            # enforcement is idempotent.
            pass
        self._forced(session, pmo_id, pmo.name, now_ns,
                     "session EW budget elapsed")

    def on_engine_forced_detach(self, pmo_id: Hashable,
                                thread_ids: Tuple[int, ...]) -> None:
        """Arch-engine callback: eviction/sweep closed open pairs."""
        try:
            name = self.lib.manager.get(pmo_id).name
        except PmoError:
            name = str(pmo_id)
        now = self.lib.clock_ns
        for thread_id in thread_ids:
            if self.obs.enabled:
                self.obs.audit.record_detach(
                    thread_id, pmo_id, name, now, forced=True,
                    reason="arch engine forced detach")
            session = self.by_entity(thread_id)
            if session is not None:
                self._forced(session, pmo_id, name, now,
                             "arch engine forced detach")

    def _forced(self, session: Session, pmo_id: Any, name: str,
                now_ns: int, reason: str) -> None:
        """A window closed on the session's behalf: event, journal,
        count."""
        session.note_forced_detach(pmo_id, name, now_ns, reason)
        self.record("detach", session, now_ns, pmo_id=pmo_id, pmo=name,
                    forced=True, reason=reason)
        self.metrics.series["forced_detaches"].inc()

    # -- session journal ----------------------------------------------------

    def record(self, rec: str, session: Session, at_ns: int,
               **fields: Any) -> None:
        """Append one ``rec`` record (``session`` / ``attach`` /
        ``detach`` / ``close``) about ``session`` to the session
        journal, when the daemon is durable."""
        if self.journal is not None:
            self.journal.record(rec, sid=session.session_id,
                                at_ns=at_ns, **fields)
