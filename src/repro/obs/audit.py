"""The exposure-window audit timeline.

The runtime's :class:`~repro.core.exposure.ExposureMonitor` is the
library's exposure ledger: the windows and relocations the EW/TEW
statistics, the exposure timeline and Theorem 6's schedule are read
from.  The terpd daemon's monitor holds open windows only, so the
service's ledger is this timeline, which *remembers the events*:
every attach, detach, forced detach, and sweep pass, with the entity
that caused it, the PMO it touched, and — for the closing half of a
pair — how long the window stayed open.  It answers the operator's
questions the aggregate cannot: *when* was this PMO exposed, *to whom*,
and *who* closed the window (the tenant, or the sweeper on its behalf)?

Events land in a bounded ring buffer (old events roll off) while
cumulative per-PMO statistics are kept separately, so
:meth:`AuditTimeline.summary` stays exact over the whole run even
after the ring has wrapped.  A monotonically increasing sequence
number stamps every event, giving a total order across concurrent
sessions regardless of clock granularity.

Like the rest of :mod:`repro.obs`, the timeline has a no-op mode:
constructed with ``enabled=False`` every recorder returns immediately.
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import (
    Any, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence,
    Tuple)

from repro.obs import ring

#: event kinds, in the vocabulary of the paper's constructs
ATTACH = "attach"
DETACH = "detach"
FORCED_DETACH = "forced-detach"
SWEEP = "sweep"
FAULT = "fault"
#: the daemon came back after a crash; ``duration_ns`` is the outage
RESTART = "restart"
#: one integrity-scrub pass over at-rest pages
SCRUB = "scrub"
#: a PMO failed verification with no repair source
QUARANTINE = "quarantine"

#: The ring's ``kind`` column holds an index into this tuple.
KINDS = (ATTACH, DETACH, FORCED_DETACH, SWEEP, FAULT, RESTART, SCRUB,
         QUARANTINE)
_CODE = {kind: code for code, kind in enumerate(KINDS)}
#: The key order of every event :meth:`AuditTimeline.events` returns.
_FIELDS = ("seq", "kind", "at_ns", "entity", "pmo_id", "pmo",
           "duration_ns", "reason")
_EVENT_JSON = ring.object_template(_FIELDS)
_NEXT_EVENT_JSON = b"," + _EVENT_JSON
_KIND_JSON = {kind: ring.dumps(kind) for kind in KINDS}
#: Stands for None in the entity and duration columns.
_NONE = -2 ** 63
_INT_OR_NONE = {int, type(None)}


class AuditTimeline:
    """Bounded event log + exact cumulative exposure accounting."""

    def __init__(self, *, capacity: int = 65536,
                 enabled: bool = True) -> None:
        self.enabled = enabled
        self.capacity = capacity
        # The ring (repro.obs.ring): kind as an index into KINDS; at_ns,
        # entity and duration_ns in q columns; (pmo_id, pmo) by its index
        # in ``_pairs``, which is no longer than ``_per_pmo``; the reason
        # by reference.  The seq is the position: ``events_recorded``.
        self._cols = ring.columns("BqqqiO", capacity)
        self._slots = capacity or 1
        self._pairs: Dict[Tuple[Hashable, Optional[str]], int] = {}
        #: the one copy of each sweep's "closed N window(s)"
        self._sweep_reasons: Dict[str, str] = {}
        self._spill: Dict[int, Tuple] = {}
        self._lock = threading.Lock()
        #: (entity, pmo_id) -> attach timestamp of the open window
        self._open: Dict[Tuple[Optional[int], Hashable], int] = {}
        #: pmo_id -> cumulative per-PMO stats (never rolls off)
        self._per_pmo: Dict[Hashable, Dict[str, Any]] = {}
        self.events_recorded = 0
        self.sweeps = 0
        self.faults_injected = 0

    # -- recording --------------------------------------------------------

    def _pmo_stats(self, pmo_id: Hashable,
                   pmo_name: Optional[str]) -> Dict[str, Any]:
        stats = self._per_pmo.get(pmo_id)
        if stats is None:
            stats = {"pmo": pmo_name, "attaches": 0, "detaches": 0,
                     "forced_detaches": 0, "windows": 0,
                     "held_total_ns": 0, "held_max_ns": 0}
            self._per_pmo[pmo_id] = stats
        elif pmo_name is not None and stats["pmo"] is None:
            stats["pmo"] = pmo_name
        return stats

    def _append_locked(self, kind: str, at_ns: int,
                       entity: Optional[int], pmo_id: Hashable,
                       pmo_name: Optional[str],
                       duration_ns: Optional[int], reason: str) -> None:
        # Caller holds self._lock — one lock section per event keeps
        # the seq ordering and the stats update atomic together.
        pair = self._pairs.setdefault((pmo_id, pmo_name), len(self._pairs))
        kinds, ats, entities, durations, pairs, reasons = self._cols
        n = self.events_recorded
        self.events_recorded = n + 1
        slot = n % self._slots
        if slot == len(kinds):            # the ring is still filling
            ring.grow(self._cols, self._slots)
        kinds[slot], pairs[slot], reasons[slot] = _CODE[kind], pair, reason
        if self._spill:
            self._spill.pop(slot, None)
        # Exact ints ride in the columns, None as _NONE; anything else —
        # a float clock, 2**63, _NONE itself — is kept in the spill table.
        numbers = (at_ns, entity, duration_ns)
        try:
            if type(at_ns) is not int or _NONE in numbers or \
                    not {type(entity), type(duration_ns)} <= _INT_OR_NONE:
                raise TypeError
            ats[slot], entities[slot], durations[slot] = at_ns, \
                _NONE if entity is None else entity, \
                _NONE if duration_ns is None else duration_ns
        except (TypeError, OverflowError):
            self._spill[slot] = numbers

    def record_attach(self, entity: Optional[int], pmo_id: Hashable,
                      pmo_name: Optional[str], at_ns: int, *,
                      reason: str = "") -> None:
        """An entity gained access to a PMO; opens its held-window."""
        if not self.enabled:
            return
        with self._lock:
            # A silent re-attach inside a combined window keeps the
            # original start: exposure began at the first attach.
            self._open.setdefault((entity, pmo_id), at_ns)
            self._pmo_stats(pmo_id, pmo_name)["attaches"] += 1
            self._append_locked(ATTACH, at_ns, entity, pmo_id,
                                pmo_name, None, reason)

    def record_detach(self, entity: Optional[int], pmo_id: Hashable,
                      pmo_name: Optional[str], at_ns: int, *,
                      forced: bool = False, reason: str = "") -> None:
        """An entity's access ended; closes the held-window if open."""
        if not self.enabled:
            return
        with self._lock:
            since = self._open.pop((entity, pmo_id), None)
            duration = None if since is None else max(0, at_ns - since)
            stats = self._pmo_stats(pmo_id, pmo_name)
            stats["forced_detaches" if forced else "detaches"] += 1
            if duration is not None:
                stats["windows"] += 1
                stats["held_total_ns"] += duration
                if duration > stats["held_max_ns"]:
                    stats["held_max_ns"] = duration
            self._append_locked(FORCED_DETACH if forced else DETACH,
                                at_ns, entity, pmo_id, pmo_name,
                                duration, reason)

    def record_sweep(self, at_ns: int, *, closed: int,
                     duration_ns: Optional[int] = None) -> None:
        """One sweeper pass closed ``closed`` windows."""
        if not self.enabled:
            return
        with self._lock:
            self.sweeps += 1
            reason = f"closed {closed} window(s)"
            reason = self._sweep_reasons.setdefault(reason, reason)
            self._append_locked(SWEEP, at_ns, None, None, None,
                                duration_ns, reason)

    def record_fault(self, site: str, kind: str, at_ns: int, *,
                     detail: str = "") -> None:
        """An injected fault fired at ``site``.

        Chaos runs thread the fault plan's ``on_fire`` hook here so
        injected failures are first-class events on the same timeline
        as the windows they perturb — a faulted run's audit record
        shows *both* the chaos and the enforcement that survived it.
        """
        if not self.enabled:
            return
        with self._lock:
            self.faults_injected += 1
            reason = f"{site} [{kind}]"
            if detail:
                reason = f"{reason} {detail}"
            self._append_locked(FAULT, at_ns, None, None, None, None,
                                reason)

    def record_restart(self, at_ns: int, *, downtime_ns: int,
                       sessions_restored: int = 0,
                       reason: str = "") -> None:
        """The daemon recovered after a crash.

        ``downtime_ns`` (carried as the event's ``duration_ns``) is the
        wall-clock outage; the invariant checker's I6 uses it to extend
        the exposure allowance of windows that were open across the
        restart — the clock counted through the outage, the enforcement
        could not.
        """
        if not self.enabled:
            return
        with self._lock:
            detail = reason or (
                f"recovered {sessions_restored} session(s) after "
                f"{downtime_ns / 1e6:.1f}ms down")
            self._append_locked(RESTART, at_ns, None, None, None,
                                max(0, downtime_ns), detail)

    def record_scrub(self, at_ns: int, *, verified: int,
                     repaired: int, quarantined: int) -> None:
        """One bounded integrity-scrub pass finished.

        Only recorded when the pass found damage — an all-clean scrub
        would flood the ring at one event per sweep.
        """
        if not self.enabled or (repaired == 0 and quarantined == 0):
            return
        with self._lock:
            self._append_locked(
                SCRUB, at_ns, None, None, None, None,
                f"verified {verified}, repaired {repaired}, "
                f"quarantined {quarantined}")

    def record_quarantine(self, pmo_id: Hashable,
                          pmo_name: Optional[str], at_ns: int, *,
                          reason: str = "") -> None:
        """A PMO was quarantined (unrepairable integrity failure)."""
        if not self.enabled:
            return
        with self._lock:
            self._pmo_stats(pmo_id, pmo_name)
            self._append_locked(QUARANTINE, at_ns, None, pmo_id,
                                pmo_name, None, reason)

    # -- querying ---------------------------------------------------------

    def snapshot(self, *, pmo: Optional[Hashable] = None,
                 kind: Optional[str] = None,
                 limit: Optional[int] = None) -> "EventRows":
        """The one reader: the newest ``limit`` retained events (of PMO
        ``pmo``, id or name, and of ``kind``), copied out under the
        lock in O(rows) — decoded (:meth:`events`) or encoded
        (:meth:`EventRows.texts`, a ``trace`` answer) with it
        released."""
        kinds, pairs = self._cols[0], self._cols[4]
        with self._lock:
            # Newest first, filtering on the columns, stopping at `limit`
            # matches: O(limit) rows under the lock appends take.
            n = self.events_recorded
            slots = ring.newest_first(n, self.capacity) if kind is None \
                else ring.newest_first_equal(
                    kinds, _CODE.get(kind, len(KINDS)), n, self.capacity)
            if pmo is not None:
                wanted = {ix for (pmo_id, name), ix in self._pairs.items()
                          if pmo_id == pmo or name == pmo}
                slots = (s for s in slots if pairs[s] in wanted)
            return EventRows(self._cols, self._spill, islice(slots, limit),
                             n, self._slots, list(self._pairs))

    def events(self, *, pmo: Optional[Hashable] = None,
               kind: Optional[str] = None,
               limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Retained events in sequence order, optionally filtered by
        PMO (id or name) and/or kind, optionally the last ``limit``."""
        return [dict(zip(_FIELDS, (seq, event_kind, at_ns, entity, *pair,
                                   duration_ns, reason)))
                for seq, event_kind, at_ns, entity, pair, duration_ns,
                reason in self.snapshot(pmo=pmo, kind=kind,
                                        limit=limit)]

    def open_windows(self, now_ns: Optional[int] = None
                     ) -> List[Dict[str, Any]]:
        """Currently-open held-windows, oldest first."""
        with self._lock:
            entries = [{"entity": entity, "pmo_id": pmo_id,
                        "since_ns": since,
                        "age_ns": (None if now_ns is None
                                   else max(0, now_ns - since))}
                       for (entity, pmo_id), since in self._open.items()]
        entries.sort(key=lambda e: e["since_ns"])
        return entries

    def summary(self) -> Dict[str, Any]:
        """Whole-run exposure accounting, exact (not ring-bounded).

        ``held_*`` statistics are the audit analogue of the paper's
        TEW: how long entities held access between an attach and the
        detach (voluntary or forced) that closed it.
        """
        with self._lock:
            per_pmo = {str(stats["pmo"] if stats["pmo"] is not None
                           else pmo_id): dict(stats)
                       for pmo_id, stats in self._per_pmo.items()}
            open_count = len(self._open)
            events = self.events_recorded
            sweeps = self.sweeps
            faults = self.faults_injected
        windows = sum(s["windows"] for s in per_pmo.values())
        held_total = sum(s["held_total_ns"] for s in per_pmo.values())
        held_max = max((s["held_max_ns"] for s in per_pmo.values()),
                       default=0)
        return {
            "events": events,
            "attaches": sum(s["attaches"] for s in per_pmo.values()),
            "detaches": sum(s["detaches"] for s in per_pmo.values()),
            "forced_detaches": sum(s["forced_detaches"]
                                   for s in per_pmo.values()),
            "sweeps": sweeps,
            "faults_injected": faults,
            "open_windows": open_count,
            "windows": windows,
            "held_mean_ns": held_total / windows if windows else 0.0,
            "held_max_ns": held_max,
            "per_pmo": per_pmo,
        }


class EventRows(ring.Snapshot):
    """Events a read picked (:meth:`AuditTimeline.snapshot`), with
    what decodes them: the seq of each slot, given how many events were
    ``written`` to a ring of ``ring_slots``, and the (pmo_id, pmo)
    ``pairs`` the pair column indexes."""

    __slots__ = ("written", "ring_slots", "pairs")

    def __init__(self, cols: Sequence[Any], spill: Dict[int, Tuple],
                 slots: Iterable[int], written: int, ring_slots: int,
                 pairs: List[Tuple[Hashable, Optional[str]]]) -> None:
        super().__init__(cols, spill, slots)
        self.written, self.ring_slots, self.pairs = \
            written, ring_slots, pairs

    def __iter__(self) -> Iterator[Tuple]:
        """``(seq, kind, at_ns, entity, (pmo_id, pmo), duration_ns,
        reason)`` of each event, oldest first."""
        n, slots, spill, pair_at = \
            self.written, self.ring_slots, self.spill, self.pairs
        kinds, ats, entities, durations, pairs, reasons = self.cols
        for row, slot in enumerate(self.slots):
            if spill and row in spill:
                at_ns, entity, duration_ns = spill[row]
            else:
                at_ns, entity, duration_ns = \
                    ats[row], entities[row], durations[row]
                entity = None if entity == _NONE else entity
                duration_ns = None if duration_ns == _NONE else duration_ns
            yield (n - (n - 1 - slot) % slots, KINDS[kinds[row]], at_ns,
                   entity, pair_at[pairs[row]], duration_ns, reasons[row])

    def texts(self) -> Iterator[bytes]:
        """Each event's JSON text, oldest first, every one after the
        first led by its separating comma."""
        pmo_texts: Dict[int, Tuple[bytes, ...]] = {}
        reason_texts: Dict[str, bytes] = {}
        number, template = ring.number, _EVENT_JSON
        for seq, kind, at_ns, entity, pair, duration_ns, reason in self:
            # Pairs and reasons are shared among events, so each is
            # encoded once per pass.
            pmo_text = pmo_texts.get(id(pair))
            if pmo_text is None:
                pmo_text = pmo_texts[id(pair)] = tuple(map(ring.dumps, pair))
            why = reason_texts.get(reason)
            if why is None:
                why = reason_texts[reason] = ring.dumps(reason)
            yield template % (number(seq), _KIND_JSON[kind],
                              number(at_ns), number(entity), *pmo_text,
                              number(duration_ns), why)
            template = _NEXT_EVENT_JSON
