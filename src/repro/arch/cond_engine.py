"""Conditional attach/detach execution — Figures 7b and 7c.

:class:`TerpArchEngine` is the hardware realization of the
EW-conscious semantics with *window combining*: it implements the
same :class:`~repro.core.semantics.SemanticsEngine` interface, so the
TERP runtime can drive it interchangeably with the software engines,
but its decisions follow the six CONDAT/CONDDT cases:

=====  ==========================================================
Case   behaviour
=====  ==========================================================
1      first attach: allocate CB entry (Ctr=1, DD=0), set thread
       permission, attach() system call
2      subsequent attach (DD=0): set thread permission, Ctr++
3      silent attach (DD=1): reset DD, Ctr=1, set thread
       permission — a detach+attach syscall pair elided
4      partial detach (more holders remain): revoke thread
       permission, Ctr--
5      full detach (last holder, EW target met): detach() syscall
6      delayed detach (last holder, EW not yet met): set DD,
       revoke thread permission — the window stays open for
       combining
=====  ==========================================================

The periodic sweep (:meth:`sweep`) force-closes expired windows:
detaching PMOs nobody holds (DD=1, Ctr=0) and re-randomizing PMOs
still held (Ctr>0) so no PMO address outlives the EW target (the
partial-combining case of Figure 6c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Set, Tuple)

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.obs.tracing import Tracer

from repro.core.errors import InjectedFault
from repro.core.permissions import Access
from repro.core.semantics import (
    Action, ActionKind, Decision, Outcome, SemanticsEngine)
from repro.arch.circular_buffer import CircularBuffer, TIMER_TICK_NS


@dataclass
class CaseCounters:
    """How often each of the six hardware cases fired."""

    case1_first_attach: int = 0
    case2_subsequent_attach: int = 0
    case3_silent_attach: int = 0
    case4_partial_detach: int = 0
    case5_full_detach: int = 0
    case6_delayed_detach: int = 0
    sweep_detaches: int = 0
    sweep_randomizes: int = 0

    @property
    def elided_syscall_pairs(self) -> int:
        """Case 3 elides one detach+attach system-call pair each time."""
        return self.case3_silent_attach


class TerpArchEngine(SemanticsEngine):
    """EW-conscious semantics in hardware, with window combining."""

    name = "terp-arch"

    def __init__(self, ew_target_ns: int, *,
                 capacity: int = 32,
                 domain_capacity: Optional[int] = None,
                 sweep_period_ns: int = TIMER_TICK_NS,
                 window_combining: bool = True) -> None:
        super().__init__()
        if ew_target_ns <= 0:
            raise ValueError("ew_target_ns must be positive")
        self.ew_target_ns = ew_target_ns
        self.sweep_period_ns = sweep_period_ns
        #: How many PMOs the protection-domain substrate can keep
        #: mapped at once (MPK: 15 assignable keys).  Every CB entry is
        #: a mapped PMO, so when this bound is hit, a delayed-detach
        #: entry is evicted exactly as when the buffer itself fills —
        #: otherwise the MAP action would fail below the engine with
        #: the key pool exhausted.  ``None`` removes the bound (the
        #: simulator's pure-engine tests).
        self.domain_capacity = domain_capacity
        #: window_combining=False ablates the delayed-detach path
        #: (cases 3 and 6): the last holder's detach always unmaps.
        #: This is Figure 11's "+Cond" configuration — conditional
        #: instructions without the circular buffer's combining.
        self.window_combining = window_combining
        self.cb = CircularBuffer(capacity)
        self.cases = CaseCounters()
        self._thread_open: Dict[Tuple[int, Hashable], bool] = {}
        self._last_sweep_ns = 0
        #: attach pairs closed by a forced detach (sweep or eviction)
        #: rather than by the owning thread; a later detach from that
        #: thread is a defined silent no-op instead of an error.
        self._forced_pairs: Set[Tuple[int, Hashable]] = set()
        #: observer hook for the service layer: called as
        #: ``on_forced_detach(pmo_id, (thread_id, ...))`` whenever the
        #: sweeper or the eviction path force-detaches a PMO, with the
        #: threads whose open pairs were closed by force.
        self.on_forced_detach: Optional[
            Callable[[Hashable, Tuple[int, ...]], None]] = None
        #: optional observability hook: when set (the terpd service
        #: does), each sweep pass that does work is recorded as an
        #: ``engine.sweep`` span nested under the caller's span.
        self.tracer: Optional["Tracer"] = None
        #: optional fault-injection plan; sites ``engine.buffer_full``
        #: and ``engine.domain_exhausted`` (attach-side transient
        #: capacity faults).  The sweeper-stall site lives in the
        #: driver that schedules sweeps (terpd's ``run_sweep``), not
        #: here — a stalled sweeper never enters this method at all.
        self.faults: Optional["FaultPlan"] = None

    def _at_capacity(self) -> bool:
        if self.cb.is_full():
            return True
        return self.domain_capacity is not None and \
            len(self.cb) >= self.domain_capacity

    # -- CONDAT ------------------------------------------------------------

    def attach(self, thread_id: int, pmo_id: Hashable, access: Access,
               now_ns: int) -> Decision:
        key = (thread_id, pmo_id)
        if self._thread_open.get(key):
            return Decision(Outcome.ERROR,
                            reason="overlapping attach within a thread")
        if self.faults is not None:
            # Transient capacity faults: the buffer (or the MPK key
            # pool beneath it) reports full even though it is not —
            # the retryable resource-exhaustion failure mode.
            if self.faults.fire("engine.buffer_full") is not None:
                raise InjectedFault(
                    "injected: circular buffer full",
                    site="engine.buffer_full")
            if self.faults.fire("engine.domain_exhausted") is not None:
                raise InjectedFault(
                    "injected: protection-domain pool exhausted",
                    site="engine.domain_exhausted")
        # A fresh attach supersedes any forced-detach marker: from here
        # on the pair is live again and its detach must be real.
        self._forced_pairs.discard(key)
        entry = self.cb.lookup(pmo_id)
        st = self._state(pmo_id)
        if entry is None:
            # Case 1: first attach.  Make room if the buffer — or the
            # protection-domain pool underneath it — is full.
            if self._at_capacity():
                victim = self.cb.evictable()
                if victim is None:
                    return Decision(Outcome.ERROR,
                                    reason="attach capacity reached "
                                           "(circular buffer full or no "
                                           "free protection domain), no "
                                           "evictable entry")
                self._force_detach(victim.pmo_id)
                # The victim's real detach is folded into this attach's
                # decision so the runtime applies it.
                self.cb.remove(victim.pmo_id)
                self.cases.sweep_detaches += 1
                self._thread_open[key] = True
                st.holders[thread_id] = access
                st.mapped = True
                st.last_real_attach_ns = now_ns
                self.cb.add(pmo_id, now_ns)
                self.cases.case1_first_attach += 1
                return Decision(Outcome.PERFORMED, [
                    Action(ActionKind.UNMAP, victim.pmo_id),
                    Action(ActionKind.MAP, pmo_id),
                    Action(ActionKind.GRANT, pmo_id, thread_id, access),
                ], reason="case 1 after eviction")
            self.cb.add(pmo_id, now_ns)
            st.mapped = True
            st.last_real_attach_ns = now_ns
            st.holders[thread_id] = access
            self._thread_open[key] = True
            self.cases.case1_first_attach += 1
            return Decision(Outcome.PERFORMED, [
                Action(ActionKind.MAP, pmo_id),
                Action(ActionKind.GRANT, pmo_id, thread_id, access),
            ], reason="case 1: first attach")
        self._thread_open[key] = True
        st.holders[thread_id] = access
        if not entry.dd:
            # Case 2: subsequent attach by another thread.
            entry.ctr += 1
            self.cases.case2_subsequent_attach += 1
            return Decision(Outcome.SILENT, [
                Action(ActionKind.GRANT, pmo_id, thread_id, access),
            ], reason="case 2: subsequent attach")
        # Case 3: PMO was in delayed-detach state; elide the pair.
        entry.dd = False
        entry.ctr = 1
        self.cases.case3_silent_attach += 1
        return Decision(Outcome.SILENT, [
            Action(ActionKind.GRANT, pmo_id, thread_id, access),
        ], reason="case 3: silent attach (window combined)")

    # -- CONDDT -------------------------------------------------------------

    def detach(self, thread_id: int, pmo_id: Hashable,
               now_ns: int) -> Decision:
        key = (thread_id, pmo_id)
        if not self._thread_open.get(key):
            if key in self._forced_pairs:
                # The sweeper (or an eviction) already closed this pair
                # while the thread was still inside it — the thread's
                # own detach raced the forced one and lost.  That is a
                # defined outcome, not a semantics violation.
                self._forced_pairs.discard(key)
                return Decision(Outcome.SILENT,
                                reason="pair already closed by forced "
                                       "detach")
            return Decision(Outcome.ERROR,
                            reason="detach without a matching attach "
                                   "in this thread")
        entry = self.cb.lookup(pmo_id)
        if entry is None:
            return Decision(Outcome.ERROR,
                            reason="detach of PMO not in circular buffer")
        self._thread_open[key] = False
        st = self._state(pmo_id)
        st.holders.pop(thread_id, None)
        entry.ctr -= 1
        actions = [Action(ActionKind.REVOKE, pmo_id, thread_id)]
        if entry.ctr > 0:
            # Case 4: other threads still hold the PMO.
            self.cases.case4_partial_detach += 1
            return Decision(Outcome.SILENT, actions,
                            reason="case 4: partial detach")
        if not self.window_combining or \
                entry.age_ns(now_ns) >= self.ew_target_ns:
            # Case 5: EW met/exceeded — full detach.  (With combining
            # ablated, every last-holder detach takes this path.)
            self.cb.remove(pmo_id)
            st.mapped = False
            actions.append(Action(ActionKind.UNMAP, pmo_id))
            self.cases.case5_full_detach += 1
            return Decision(Outcome.PERFORMED, actions,
                            reason="case 5: full detach")
        # Case 6: delay the detach; the window may combine with the
        # next attach (Figure 6a) or the sweeper will close it.
        entry.dd = True
        self.cases.case6_delayed_detach += 1
        return Decision(Outcome.SILENT, actions,
                        reason="case 6: delayed detach")

    # -- access (same checks as EW-conscious) --------------------------------

    def access(self, thread_id: int, pmo_id: Hashable, requested: Access,
               now_ns: int) -> Decision:
        st = self._state(pmo_id)
        if not st.mapped:
            return Decision(Outcome.FAULT_SEGV, reason="PMO not attached")
        granted = st.holders.get(thread_id, Access.NONE)
        if not granted.allows(requested):
            return Decision(Outcome.FAULT_PERM,
                            reason=f"thread {thread_id} needs "
                                   f"{requested}, has {granted}")
        return Decision(Outcome.OK)

    # -- the sweeper ------------------------------------------------------------

    def sweep_due(self, now_ns: int) -> bool:
        return now_ns - self._last_sweep_ns >= self.sweep_period_ns

    def next_expiry_ns(self) -> Optional[int]:
        """Earliest time any buffered PMO reaches its EW target.

        The simulator uses this to land a sweep inside long compute
        stretches — hardware would simply tick; a DES must not jump
        over the deadline.
        """
        entries = list(self.cb.entries())
        if not entries:
            return None
        return min(e.ts_ns for e in entries) + self.ew_target_ns

    def sweep(self, now_ns: int) -> List[Decision]:
        """Periodic head-to-tail sweep (Figure 7a, steps 3-4).

        Returns one decision per expired entry: a PERFORMED detach for
        entries no thread holds, a RANDOMIZE for held entries (which
        also resets their attach timestamp).
        """
        tracer = self.tracer
        t0 = tracer.clock() if tracer is not None else 0
        self._last_sweep_ns = now_ns
        decisions: List[Decision] = []
        for entry in self.cb.sweep(now_ns, self.ew_target_ns):
            if entry.ctr == 0:
                self.cb.remove(entry.pmo_id)
                self._force_detach(entry.pmo_id)
                self.cases.sweep_detaches += 1
                decisions.append(Decision(Outcome.PERFORMED, [
                    Action(ActionKind.UNMAP, entry.pmo_id),
                ], reason="sweep: EW met, no holders"))
            else:
                entry.ts_ns = now_ns
                st = self._state(entry.pmo_id)
                st.last_real_attach_ns = now_ns
                self.cases.sweep_randomizes += 1
                decisions.append(Decision(Outcome.SILENT, [
                    Action(ActionKind.RANDOMIZE, entry.pmo_id),
                ], reason="sweep: EW met, holders remain -> randomize"))
        if tracer is not None and decisions:
            tracer.record_since("engine.sweep", t0,
                                decisions=len(decisions))
        return decisions

    def _force_detach(self, pmo_id: Hashable) -> None:
        st = self._state(pmo_id)
        st.mapped = False
        st.holders.clear()
        closed = tuple(t for (t, p), is_open in self._thread_open.items()
                       if p == pmo_id and is_open)
        for thread_id in closed:
            self._thread_open[(thread_id, pmo_id)] = False
            self._forced_pairs.add((thread_id, pmo_id))
        if self.on_forced_detach is not None:
            self.on_forced_detach(pmo_id, closed)
