"""The TERP runtime: semantics decisions applied to real substrates.

:class:`TerpRuntime` is the software layer a protected process runs
under.  Every attach/detach/access flows through the configured
semantics engine (:mod:`repro.core.semantics`); the engine's verdict is
then *applied*:

* MAP/UNMAP — the PMO is attached to / detached from the
  :class:`~repro.mem.address_space.AddressSpace` (randomized base,
  embedded-subtree install, permission-matrix entry);
* GRANT/REVOKE — the thread's MPK protection-domain rights change;
* RANDOMIZE — the PMO is relocated to a fresh base address.

The runtime also records exposure windows (EW and TEW) and per-outcome
counters — the quantities Tables III/IV report — and optionally logs a
full event trace.

Time is externally supplied (``now_ns`` on every call): in examples a
manual clock is fine; in the simulator the machine's clock drives it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Optional

if TYPE_CHECKING:
    from repro.obs import Observability

from repro.core.errors import ProtectionFault, SegmentationFault, TerpError
from repro.core.events import EventKind, Trace, TraceEvent
from repro.core.exposure import ExposureMonitor
from repro.core.permissions import Access
from repro.core.semantics import (
    Action, ActionKind, Decision, Outcome, SemanticsEngine)
from repro.mem.address_space import AddressSpace
from repro.pmo.object_id import Oid
from repro.pmo.pool import PmoManager


@dataclass
class RuntimeCounters:
    """Per-outcome tallies — the inputs to the Silent% and overhead
    breakdowns of the evaluation."""

    attach_calls: int = 0
    detach_calls: int = 0
    attach_syscalls: int = 0      # performed (real) attaches
    detach_syscalls: int = 0      # performed (real) detaches
    silent_attaches: int = 0
    silent_detaches: int = 0
    randomizations: int = 0
    grants: int = 0
    revokes: int = 0
    faults: int = 0
    blocked: int = 0
    accesses: int = 0
    errors: int = 0

    @property
    def silent_percent(self) -> float:
        """Fraction of attach/detach calls that avoided a system call."""
        total = self.attach_calls + self.detach_calls
        if total == 0:
            return 0.0
        silent = self.silent_attaches + self.silent_detaches
        return 100.0 * silent / total


class Handle:
    """The immutable handler ``attach()`` returns (Section II).

    It records the virtual address the PMO had at attach time
    (``base_va_at_attach``) and offers the *relocatable* translation
    path (:meth:`direct`) that follows the PMO through randomization —
    the paper's footnote 2 assumes all PMO accesses use it.
    """

    def __init__(self, runtime: "TerpRuntime", pmo, thread_id: int,
                 base_va_at_attach: int) -> None:
        self._runtime = runtime
        self.pmo = pmo
        self.thread_id = thread_id
        self.base_va_at_attach = base_va_at_attach

    def direct(self, oid: Oid) -> int:
        """``oid_direct``: the OID's *current* virtual address."""
        offset = self.pmo.offset_of(oid)
        return self._runtime.space.va_of(self.pmo.pmo_id, offset)


class TerpRuntime:
    """One protected process: semantics engine + memory substrates."""

    def __init__(self, semantics: SemanticsEngine, *,
                 manager: Optional[PmoManager] = None,
                 space: Optional[AddressSpace] = None,
                 monitor: Optional[ExposureMonitor] = None,
                 trace: Optional[Trace] = None,
                 rng: Optional[random.Random] = None,
                 strict: bool = False,
                 obs: Optional["Observability"] = None) -> None:
        self.semantics = semantics
        self.manager = manager if manager is not None else PmoManager()
        self.space = space if space is not None else AddressSpace(
            rng=rng if rng is not None else random.Random(2022))
        self.monitor = monitor if monitor is not None else ExposureMonitor()
        self.trace = trace
        #: strict=True raises on semantics violations instead of
        #: returning the ERROR decision — handy in tests and examples.
        self.strict = strict
        self.counters = RuntimeCounters()
        self._last_now = 0
        # Observability is opt-in; the cached handles make the hot-path
        # guard a single None check when it is off.
        self.obs = obs
        self._audit = (obs.audit if obs is not None and obs.enabled
                       else None)
        # Per-attach/detach spans are opt-in detail (obs.trace_runtime):
        # the audit timeline already records those events, so the span
        # stream only adds latency attribution when explicitly wanted.
        self._tracer = (obs.tracer
                        if obs is not None and obs.enabled
                        and obs.trace_runtime else None)

    # -- clock discipline ---------------------------------------------------

    def _advance(self, now_ns: int) -> int:
        if now_ns < self._last_now:
            raise TerpError(
                f"time went backwards: {now_ns} < {self._last_now}")
        self._last_now = now_ns
        return now_ns

    @property
    def now_ns(self) -> int:
        return self._last_now

    # -- TERP constructs --------------------------------------------------------

    def attach(self, thread_id: int, pmo, access: Access,
               now_ns: int) -> "AttachResult":
        """The attach construct; returns the decision and a Handle."""
        tracer = self._tracer
        t0 = tracer.clock() if tracer is not None else 0
        self._advance(now_ns)
        self.counters.attach_calls += 1
        decision = self.semantics.attach(thread_id, pmo.pmo_id, access,
                                         now_ns)
        self._record(EventKind.ATTACH, now_ns, thread_id, pmo.pmo_id,
                     decision)
        if decision.outcome is Outcome.ERROR:
            self.counters.errors += 1
            if self.strict:
                raise TerpError(f"attach error: {decision.reason}")
            return AttachResult(decision, None)
        if decision.outcome is Outcome.BLOCKED:
            self.counters.blocked += 1
            return AttachResult(decision, None)
        if decision.performed:
            self.counters.attach_syscalls += 1
        else:
            self.counters.silent_attaches += 1
        self._apply(decision, pmo, now_ns)
        mapping = self.space.mapping_of(pmo.pmo_id)
        handle = Handle(self, pmo, thread_id,
                        mapping.base_va if mapping else 0)
        if self._audit is not None:
            self._audit.record_attach(thread_id, pmo.pmo_id, pmo.name,
                                      now_ns,
                                      reason=decision.outcome.value)
        if tracer is not None:
            tracer.record_since("rt.attach", t0, pmo=pmo.name,
                                entity=thread_id,
                                outcome=decision.outcome.value)
        return AttachResult(decision, handle)

    def detach(self, thread_id: int, pmo, now_ns: int, *,
               forced: bool = False, reason: str = "") -> Decision:
        """The detach construct.

        ``forced``/``reason`` only annotate the audit timeline: a
        supervisor (the terpd sweeper) detaching on an entity's behalf
        passes ``forced=True`` so the event is distinguishable from the
        entity closing its own window.
        """
        tracer = self._tracer
        t0 = tracer.clock() if tracer is not None else 0
        self._advance(now_ns)
        self.counters.detach_calls += 1
        decision = self.semantics.detach(thread_id, pmo.pmo_id, now_ns)
        self._record(EventKind.DETACH, now_ns, thread_id, pmo.pmo_id,
                     decision)
        if decision.outcome is Outcome.ERROR:
            self.counters.errors += 1
            if self.strict:
                raise TerpError(f"detach error: {decision.reason}")
            return decision
        if decision.performed:
            self.counters.detach_syscalls += 1
        else:
            self.counters.silent_detaches += 1
        self._apply(decision, pmo, now_ns)
        if self._audit is not None:
            self._audit.record_detach(
                thread_id, pmo.pmo_id, pmo.name, now_ns, forced=forced,
                reason=reason or decision.outcome.value)
        if tracer is not None:
            tracer.record_since("rt.detach", t0, pmo=pmo.name,
                                entity=thread_id,
                                outcome=decision.outcome.value)
        return decision

    def access(self, thread_id: int, pmo, offset: int, requested: Access,
               now_ns: int) -> Decision:
        """One simulated load/store at ``offset`` within ``pmo``."""
        self._advance(now_ns)
        self.counters.accesses += 1
        decision = self.semantics.access(thread_id, pmo.pmo_id, requested,
                                         now_ns)
        if decision.outcome in (Outcome.FAULT_SEGV, Outcome.FAULT_PERM):
            self.counters.faults += 1
            self._record(EventKind.FAULT, now_ns, thread_id, pmo.pmo_id,
                         decision)
            if self.strict:
                cls = (SegmentationFault
                       if decision.outcome is Outcome.FAULT_SEGV
                       else ProtectionFault)
                raise cls(decision.reason, thread_id=thread_id,
                          pmo_id=pmo.pmo_id)
            return decision
        self._apply(decision, pmo, now_ns)  # FCFS REATTACH emits MAP
        self._record(EventKind.ACCESS, now_ns, thread_id, pmo.pmo_id,
                     decision)
        return decision

    # -- entity lifecycle (remote sessions) ---------------------------------

    def entity_holdings(self, thread_id: int) -> list:
        """PMO ids on which the entity currently holds access."""
        return self.semantics.entity_pmos(thread_id)

    def release_entity(self, thread_id: int, now_ns: int, *,
                       forced: bool = False, reason: str = "") -> list:
        """Detach everything ``thread_id`` still holds.

        The cleanup path for a remote session that disconnected or
        crashed mid-attach: each held PMO gets a detach on the entity's
        behalf, flowing through the normal semantics engine so counters,
        exposure windows, and window combining stay correct.  Errors on
        individual PMOs are collected, not raised — a dying session must
        never leave the rest of its holdings dangling.

        ``forced``/``reason`` annotate the audit timeline exactly as
        on :meth:`detach`: a supervisor releasing a dead session's
        holdings passes ``forced=True`` so the record distinguishes
        the closure from the entity closing its own windows.

        Returns ``[(pmo_id, Decision | TerpError), ...]``.
        """
        released = []
        for pmo_id in self.entity_holdings(thread_id):
            pmo = self.manager.get(pmo_id)
            try:
                released.append((pmo_id,
                                 self.detach(thread_id, pmo, now_ns,
                                             forced=forced,
                                             reason=reason)))
            except TerpError as exc:
                released.append((pmo_id, exc))
        return released

    def sweep(self, now_ns: int) -> list:
        """Run the engine's periodic sweep and apply its decisions.

        Only meaningful for engines with a hardware sweeper (the arch
        engine); for pure software engines this is a no-op.  This is
        the surface a service daemon drives from a background task.
        """
        sweep = getattr(self.semantics, "sweep", None)
        if sweep is None:
            return []
        when = max(now_ns, self._last_now)
        self._advance(when)
        decisions = sweep(now_ns)
        for decision in decisions:
            pmo = self.manager.get(decision.actions[0].pmo_id)
            self._apply(decision, pmo, when)
        return decisions

    # -- applying decisions ----------------------------------------------------

    def _apply(self, decision: Decision, pmo, now_ns: int) -> None:
        for action in decision.actions:
            # A decision may bundle actions on several PMOs (eviction:
            # UNMAP of the victim folded into the new PMO's attach) —
            # resolve each action's own target.
            if action.pmo_id == pmo.pmo_id:
                target = pmo
            else:
                target = self.manager.get(action.pmo_id)
            if action.kind is ActionKind.MAP:
                self.space.attach(target, Access.RW)
                self.monitor.pmo_mapped(target.pmo_id, now_ns)
                self._note(EventKind.MAP, now_ns, action)
            elif action.kind is ActionKind.UNMAP:
                self.space.detach(target.pmo_id)
                self.monitor.pmo_unmapped(target.pmo_id, now_ns)
                self._note(EventKind.UNMAP, now_ns, action)
            elif action.kind is ActionKind.GRANT:
                self.space.domains.grant(action.thread_id, target.pmo_id,
                                         action.access)
                if not self.monitor.tew.is_open((action.thread_id,
                                                 target.pmo_id)):
                    self.monitor.thread_granted(action.thread_id,
                                                target.pmo_id, now_ns)
                self.counters.grants += 1
                self._note(EventKind.GRANT, now_ns, action)
            elif action.kind is ActionKind.REVOKE:
                if self.space.domains.key_of(target.pmo_id) is not None:
                    self.space.domains.revoke(action.thread_id,
                                              target.pmo_id)
                if self.monitor.tew.is_open((action.thread_id,
                                             target.pmo_id)):
                    self.monitor.thread_revoked(action.thread_id,
                                                target.pmo_id, now_ns)
                self.counters.revokes += 1
                self._note(EventKind.REVOKE, now_ns, action)
            elif action.kind is ActionKind.RANDOMIZE:
                self.space.randomize(target.pmo_id)
                self.counters.randomizations += 1
                # The PMO's address changed: the exposure window of the
                # old location ends here and a new one begins.  This is
                # what makes TT's EWs sit at the target (Table III) —
                # an address never outlives the maximum EW.
                if self.monitor.ew.is_open(target.pmo_id):
                    self.monitor.pmo_unmapped(target.pmo_id, now_ns)
                    self.monitor.pmo_mapped(target.pmo_id, now_ns)
                self._note(EventKind.RANDOMIZE, now_ns, action)

    # -- tracing ------------------------------------------------------------

    def _record(self, kind: EventKind, now_ns: int, thread_id: int,
                pmo_id: Hashable, decision: Decision) -> None:
        if self.trace is not None:
            self.trace.record(TraceEvent(kind, now_ns, thread_id, pmo_id,
                                         outcome=decision.outcome.value,
                                         detail=decision.reason))

    def _note(self, kind: EventKind, now_ns: int, action: Action) -> None:
        if self.trace is not None:
            self.trace.record(TraceEvent(kind, now_ns, action.thread_id,
                                         action.pmo_id))

    # -- end of run ------------------------------------------------------------

    def finish(self, now_ns: int) -> None:
        """Close any still-open windows at the end of a run."""
        self._advance(now_ns)
        self.monitor.finish(now_ns)


@dataclass
class AttachResult:
    decision: Decision
    handle: Optional[Handle]

    @property
    def ok(self) -> bool:
        return self.handle is not None
