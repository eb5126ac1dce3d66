"""The exposure sweeper, split out of the daemon core.

Temporal enforcement is two-layered (see the paper's Figure 7a): the
arch engine's own sweep closes expired delayed-detach windows and
re-randomizes held PMOs, and the service layer force-detaches any PMO
a session has held past its wall-clock budget.  :class:`Sweeper` owns
the background task that drives both layers and runs the durable
store's bounded scrub pass and the session table's linger purge,
against whatever :class:`~repro.service.sessions.SessionManager` it
was composed with (and the library, metrics and audit timeline that
table carries) — the standalone daemon and every cluster shard run the
identical sweeper; in a cluster each shard's sweeper owns exactly the
exposure clocks of the PMOs that shard serves.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.faults.plan import FaultPlan
from repro.obs.tracing import NULL_SPAN
from repro.service import reactor
from repro.service.sessions import SessionManager


class Sweeper:
    """Periodic session-budget + engine sweep over one library."""

    def __init__(self, *, sessions: SessionManager,
                 sweep_period_ns: int, session_linger_ns: int,
                 now_ns: Callable[[], int],
                 faults: Optional[FaultPlan] = None,
                 tracer=None) -> None:
        #: also the library, metrics and audit timeline swept against:
        #: the ones the session table was composed with.
        self.sessions = sessions
        self.sweep_period_ns = sweep_period_ns
        self.session_linger_ns = session_linger_ns
        self.now_ns = now_ns
        self.faults = faults
        self.tracer = tracer

    async def loop(self) -> None:
        """The background task body: one pass per period, forever."""
        period_s = self.sweep_period_ns / 1e9
        while True:
            await reactor.sleep(period_s)
            self.run_sweep()

    def run_sweep(self) -> int:
        """One sweeper pass; returns the number of forced detaches.

        Callable directly (tests, embedders); the background task calls
        it on every period.  Under the library lock: session-budget
        enforcement, the engine's own sweep, then — with a durable
        pool — one bounded scrub pass of at-rest pages.
        """
        t_wall = time.perf_counter_ns()
        tracer = self.tracer
        sessions = self.sessions
        if self.faults is not None:
            rule = self.faults.fire("engine.sweep_stall")
            if rule is not None:
                # A stalled sweeper skips this pass entirely (the
                # session-budget phase, the engine sweep and the
                # scrub).  Expired windows stay open until the next
                # pass: enforcement is delayed by one period, never
                # lost — the invariant checker's slack budgets for
                # exactly this.
                if rule.delay_ns > 0:
                    time.sleep(rule.delay_ns / 1e9)
                return 0
        forced = 0
        lib = sessions.lib
        with lib.lock:
            now = lib.advance_to(self.now_ns())
            with (tracer.span("terpd.sweep") if tracer is not None
                  else NULL_SPAN) as span:
                for session in sessions:
                    for pmo_id in session.expired(now):
                        sessions.force_detach(session, pmo_id, now)
                        forced += 1
                engine_closed = len(lib.runtime.sweep(now))
                if lib.store is not None:
                    scrubbed = lib.store.scrub()
                    sessions.metrics.note_scrub(**scrubbed)
                    sessions.obs.audit.record_scrub(now, **scrubbed)
                span.set("forced", forced)
                span.set("engine_closed", engine_closed)
            sessions.purge(now, self.session_linger_ns)
            if forced or engine_closed:
                sessions.obs.audit.record_sweep(
                    now, closed=forced + engine_closed,
                    duration_ns=time.perf_counter_ns() - t_wall)
        sessions.metrics.note_sweep(time.perf_counter_ns() - t_wall)
        return forced
