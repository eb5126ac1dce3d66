"""The four attach/detach semantics of Section IV.

Each semantics is an engine that consumes attach/detach/access events
from (simulated) threads and decides, per event:

* whether the call is **performed** (a real map/unmap of the PMO),
  **silent** (absorbed / lowered to a weaker mechanism), an **error**
  (semantics violation), or — for Basic semantics in multithreaded
  runs — **blocked** until the PMO frees up (Figure 11's "basic
  semantics" bars),
* which side-effect *actions* the runtime must apply: MAP, UNMAP,
  GRANT/REVOKE of thread permission, RANDOMIZE.

The engines are deliberately pure state machines: they do not know
about costs, the circular buffer, or the exposure monitor.  The
runtime (:mod:`repro.core.runtime`) applies their decisions, charges
Table II costs, and records exposure windows.

Semantics implemented (Figure 3):

``BasicSemantics``
    Every attach must be followed by a detach; nested or concurrent
    attaches are invalid.  Process-wide.

``OutermostSemantics``
    Overlapping pairs must nest perfectly; only the outermost pair is
    performed, inner calls are silent.  EWs can grow without bound —
    the paper rejects it for that reason.

``FcfsSemantics``
    Outermost attach performed, inner attaches silent; the *first*
    detach after an attach is performed, later ones silent; an access
    after that first detach (but before the outermost detach) triggers
    an automatic reattach.

``EwConsciousSemantics``
    The chosen semantics (Section IV-C): no overlap within a thread;
    overlap across threads is fine.  Real attach iff the PMO is not
    mapped, otherwise the call lowers to a thread-permission grant.
    Real detach iff the EW target L has elapsed since the last real
    attach *and* no other thread holds access; if L has elapsed but
    other threads still hold access, the PMO is re-randomized instead
    (the randomization augmentation of Section IV-C).
"""

from __future__ import annotations

import enum
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.errors import SemanticsViolation
from repro.core.permissions import Access
from repro.core.record import field, record


class Outcome(enum.Enum):
    """What happened to an attach/detach call or an access."""

    PERFORMED = "performed"      # real syscall-level map/unmap
    SILENT = "silent"            # absorbed or lowered on the poset
    ERROR = "error"              # semantics violation
    BLOCKED = "blocked"          # must wait (Basic semantics, MT mode)
    OK = "ok"                    # access permitted
    FAULT_SEGV = "segfault"      # access to an unmapped PMO
    FAULT_PERM = "perm-fault"    # mapped but thread lacks permission
    REATTACH = "reattach"        # FCFS: access triggered auto reattach


class ActionKind(enum.Enum):
    """Side effects the runtime must apply for a decision."""

    MAP = "map"                  # map PMO into address space
    UNMAP = "unmap"              # remove mapping
    GRANT = "grant"              # open thread permission
    REVOKE = "revoke"            # close thread permission
    RANDOMIZE = "randomize"      # relocate the PMO (threads suspended)


@record(frozen=True)
class Action:
    kind: ActionKind
    pmo_id: Hashable
    thread_id: Optional[int] = None
    access: Access = Access.NONE


@record
class Decision:
    """Engine verdict for one event."""

    outcome: Outcome
    actions: List[Action] = field(default_factory=list)
    reason: str = ""

    @property
    def performed(self) -> bool:
        return self.outcome is Outcome.PERFORMED

    @property
    def silent(self) -> bool:
        return self.outcome is Outcome.SILENT


@record
class _PmoState:
    """Per-PMO bookkeeping shared by the engines."""

    mapped: bool = False
    last_real_attach_ns: int = -1
    #: thread_id -> granted Access (EW-conscious thread permissions)
    holders: Dict[int, Access] = field(default_factory=dict)
    #: nesting depth (Outermost) / outstanding attach calls (FCFS)
    depth: int = 0
    #: thread currently holding the Basic-semantics attach
    owner: Optional[int] = None


class SemanticsEngine:
    """Base class; concrete engines override the three event methods."""

    name = "abstract"

    def __init__(self) -> None:
        self._pmos: Dict[Hashable, _PmoState] = {}

    def _state(self, pmo_id: Hashable) -> _PmoState:
        return self._pmos.setdefault(pmo_id, _PmoState())

    # -- queries used by the runtime and tests -----------------------------

    def is_mapped(self, pmo_id: Hashable) -> bool:
        return self._state(pmo_id).mapped

    def holders(self, pmo_id: Hashable) -> Dict[int, Access]:
        return dict(self._state(pmo_id).holders)

    def last_real_attach_ns(self, pmo_id: Hashable) -> int:
        return self._state(pmo_id).last_real_attach_ns

    def entity_pmos(self, thread_id: int) -> List[Hashable]:
        """PMOs on which ``thread_id`` currently holds access.

        This is the entity-lifecycle query the service layer uses to
        clean up after a remote session that disconnects or crashes
        mid-attach: every listed PMO still needs a detach on the
        entity's behalf.
        """
        return [pmo_id for pmo_id, st in self._pmos.items()
                if thread_id in st.holders]

    # -- events -------------------------------------------------------------

    def attach(self, thread_id: int, pmo_id: Hashable, access: Access,
               now_ns: int) -> Decision:
        raise NotImplementedError

    def detach(self, thread_id: int, pmo_id: Hashable,
               now_ns: int) -> Decision:
        raise NotImplementedError

    def access(self, thread_id: int, pmo_id: Hashable, requested: Access,
               now_ns: int) -> Decision:
        raise NotImplementedError


class BasicSemantics(SemanticsEngine):
    """Figure 3 "Basic": strict pairing, process-wide, no overlap at all.

    ``blocking=True`` switches errors on concurrent attach into BLOCKED
    decisions, modelling the serialized execution the paper measures in
    Figure 11 ("at most one thread can attach a PMO ... other threads
    need to wait until this PMO is detached").
    """

    name = "basic"

    def __init__(self, *, blocking: bool = False) -> None:
        super().__init__()
        self.blocking = blocking

    def attach(self, thread_id, pmo_id, access, now_ns):
        st = self._state(pmo_id)
        if st.mapped:
            if self.blocking and st.owner != thread_id:
                return Decision(Outcome.BLOCKED,
                                reason="PMO attached by another thread")
            return Decision(Outcome.ERROR,
                            reason="attach on already-attached PMO")
        st.mapped = True
        st.owner = thread_id
        st.last_real_attach_ns = now_ns
        st.holders[thread_id] = access
        return Decision(Outcome.PERFORMED, [
            Action(ActionKind.MAP, pmo_id),
            Action(ActionKind.GRANT, pmo_id, thread_id, access),
        ])

    def detach(self, thread_id, pmo_id, now_ns):
        st = self._state(pmo_id)
        if not st.mapped:
            return Decision(Outcome.ERROR, reason="detach on detached PMO")
        if st.owner != thread_id:
            return Decision(Outcome.ERROR,
                            reason="detach by non-owning thread")
        st.mapped = False
        st.owner = None
        st.holders.pop(thread_id, None)
        return Decision(Outcome.PERFORMED, [
            Action(ActionKind.REVOKE, pmo_id, thread_id),
            Action(ActionKind.UNMAP, pmo_id),
        ])

    def access(self, thread_id, pmo_id, requested, now_ns):
        st = self._state(pmo_id)
        if not st.mapped:
            return Decision(Outcome.FAULT_SEGV, reason="PMO not attached")
        granted = st.holders.get(st.owner, Access.NONE)
        # Basic semantics is process-wide: any thread of the process may
        # touch the PMO while attached, with the attach-time permission.
        if not granted.allows(requested):
            return Decision(Outcome.FAULT_PERM,
                            reason=f"need {requested}, have {granted}")
        return Decision(Outcome.OK)


class OutermostSemantics(SemanticsEngine):
    """Figure 3 "Outermost": only the outermost pair acts; inner silent."""

    name = "outermost"

    def attach(self, thread_id, pmo_id, access, now_ns):
        st = self._state(pmo_id)
        st.depth += 1
        if st.depth == 1:
            st.mapped = True
            st.last_real_attach_ns = now_ns
            st.holders[thread_id] = access
            return Decision(Outcome.PERFORMED, [
                Action(ActionKind.MAP, pmo_id),
                Action(ActionKind.GRANT, pmo_id, thread_id, access),
            ])
        # Inner attach: silent, but widen the effective permission so the
        # inner region's accesses are honoured.
        st.holders[thread_id] = st.holders.get(thread_id, Access.NONE) | access
        return Decision(Outcome.SILENT, reason="inner attach")

    def detach(self, thread_id, pmo_id, now_ns):
        st = self._state(pmo_id)
        if st.depth == 0:
            return Decision(Outcome.ERROR, reason="detach without attach")
        st.depth -= 1
        if st.depth == 0:
            st.mapped = False
            actions = [Action(ActionKind.REVOKE, pmo_id, t)
                       for t in list(st.holders)]
            st.holders.clear()
            actions.append(Action(ActionKind.UNMAP, pmo_id))
            return Decision(Outcome.PERFORMED, actions)
        return Decision(Outcome.SILENT, reason="inner detach")

    def access(self, thread_id, pmo_id, requested, now_ns):
        st = self._state(pmo_id)
        if not st.mapped:
            return Decision(Outcome.FAULT_SEGV, reason="PMO not attached")
        granted = Access.NONE
        for acc in st.holders.values():
            granted |= acc
        if not granted.allows(requested):
            return Decision(Outcome.FAULT_PERM,
                            reason=f"need {requested}, have {granted}")
        return Decision(Outcome.OK)


class FcfsSemantics(SemanticsEngine):
    """Figure 3 "FCFS": first detach performed; access auto-reattaches."""

    name = "fcfs"

    def attach(self, thread_id, pmo_id, access, now_ns):
        st = self._state(pmo_id)
        st.depth += 1
        st.holders[thread_id] = st.holders.get(thread_id, Access.NONE) | access
        if st.depth == 1 and not st.mapped:
            st.mapped = True
            st.last_real_attach_ns = now_ns
            return Decision(Outcome.PERFORMED, [
                Action(ActionKind.MAP, pmo_id),
                Action(ActionKind.GRANT, pmo_id, thread_id, access),
            ])
        return Decision(Outcome.SILENT, reason="inner attach")

    def detach(self, thread_id, pmo_id, now_ns):
        st = self._state(pmo_id)
        if st.depth == 0:
            return Decision(Outcome.ERROR, reason="detach without attach")
        st.depth -= 1
        if st.mapped:
            # First detach after a (re)attach is performed.
            st.mapped = False
            actions = []
            if st.depth == 0:
                actions = [Action(ActionKind.REVOKE, pmo_id, t)
                           for t in list(st.holders)]
                st.holders.clear()
            actions.append(Action(ActionKind.UNMAP, pmo_id))
            return Decision(Outcome.PERFORMED, actions)
        if st.depth == 0:
            st.holders.clear()
        return Decision(Outcome.SILENT, reason="already unmapped")

    def access(self, thread_id, pmo_id, requested, now_ns):
        st = self._state(pmo_id)
        if not st.mapped:
            if st.depth > 0:
                # Benign access between the first (performed) detach and
                # the outermost detach: automatic reattach.  The paper's
                # criticism — an attacker access is indistinguishable —
                # is visible here: *any* access reattaches.
                st.mapped = True
                st.last_real_attach_ns = now_ns
                return Decision(Outcome.REATTACH,
                                [Action(ActionKind.MAP, pmo_id)],
                                reason="auto reattach on access")
            return Decision(Outcome.FAULT_SEGV, reason="PMO not attached")
        granted = Access.NONE
        for acc in st.holders.values():
            granted |= acc
        if not granted.allows(requested):
            return Decision(Outcome.FAULT_PERM,
                            reason=f"need {requested}, have {granted}")
        return Decision(Outcome.OK)


class EwConsciousSemantics(SemanticsEngine):
    """Section IV-C EW-conscious semantics — the paper's choice.

    ``ew_target_ns`` is the constant L: a real detach happens only when
    the time since the last real attach exceeds L *and* no other thread
    still holds access.  When L has elapsed but holders remain, the
    engine emits a RANDOMIZE action so the PMO never sits at one
    address longer than (roughly) L.

    ``randomize_on_partial`` can be disabled to ablate the
    randomization augmentation.
    """

    name = "ew-conscious"

    def __init__(self, ew_target_ns: int, *,
                 randomize_on_partial: bool = True) -> None:
        super().__init__()
        if ew_target_ns <= 0:
            raise ValueError("ew_target_ns must be positive")
        self.ew_target_ns = ew_target_ns
        self.randomize_on_partial = randomize_on_partial
        #: per (thread, pmo): is the thread inside an attach-detach pair?
        self._thread_open: Dict[Tuple[int, Hashable], bool] = {}

    def attach(self, thread_id, pmo_id, access, now_ns):
        key = (thread_id, pmo_id)
        if self._thread_open.get(key):
            return Decision(
                Outcome.ERROR,
                reason="overlapping attach within a thread is not allowed")
        st = self._state(pmo_id)
        self._thread_open[key] = True
        st.holders[thread_id] = access
        if not st.mapped:
            st.mapped = True
            st.last_real_attach_ns = now_ns
            return Decision(Outcome.PERFORMED, [
                Action(ActionKind.MAP, pmo_id),
                Action(ActionKind.GRANT, pmo_id, thread_id, access),
            ])
        # Lowering on the TERP poset: the PMO is already mapped, so the
        # call becomes a thread-permission grant only.
        return Decision(Outcome.SILENT, [
            Action(ActionKind.GRANT, pmo_id, thread_id, access),
        ], reason="lowered to thread-permission grant")

    def detach(self, thread_id, pmo_id, now_ns):
        key = (thread_id, pmo_id)
        if not self._thread_open.get(key):
            return Decision(Outcome.ERROR,
                            reason="detach without a matching attach "
                                   "in this thread")
        st = self._state(pmo_id)
        self._thread_open[key] = False
        st.holders.pop(thread_id, None)
        actions = [Action(ActionKind.REVOKE, pmo_id, thread_id)]
        elapsed = now_ns - st.last_real_attach_ns
        if elapsed >= self.ew_target_ns:
            if not st.holders:
                # Condition (i) and (ii) hold: real detach.
                st.mapped = False
                actions.append(Action(ActionKind.UNMAP, pmo_id))
                return Decision(Outcome.PERFORMED, actions)
            if self.randomize_on_partial:
                # (i) holds, (ii) does not: remap at a new random
                # address so the location never outlives L.
                st.last_real_attach_ns = now_ns
                actions.append(Action(ActionKind.RANDOMIZE, pmo_id))
                return Decision(Outcome.SILENT, actions,
                                reason="randomized; other threads hold access")
        return Decision(Outcome.SILENT, actions,
                        reason="lowered to thread-permission revoke")

    def access(self, thread_id, pmo_id, requested, now_ns):
        st = self._state(pmo_id)
        if not st.mapped:
            return Decision(Outcome.FAULT_SEGV, reason="PMO not attached")
        granted = st.holders.get(thread_id, Access.NONE)
        if not granted.allows(requested):
            return Decision(Outcome.FAULT_PERM,
                            reason=f"thread {thread_id} needs "
                                   f"{requested}, has {granted}")
        return Decision(Outcome.OK)


def make_semantics(name: str, *, ew_target_ns: int = 40_000,
                   blocking: bool = False) -> SemanticsEngine:
    """Factory keyed by semantics name, for configuration files."""
    name = name.lower()
    if name == "basic":
        return BasicSemantics(blocking=blocking)
    if name == "outermost":
        return OutermostSemantics()
    if name == "fcfs":
        return FcfsSemantics()
    if name in ("ew-conscious", "ew_conscious", "ewconscious"):
        return EwConsciousSemantics(ew_target_ns)
    raise ValueError(f"unknown semantics {name!r}")
