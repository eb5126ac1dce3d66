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

from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

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

#: The key order of every event :meth:`AuditTimeline.events` returns.
_FIELDS = ("seq", "kind", "at_ns", "entity", "pmo_id", "pmo",
           "duration_ns", "reason")
#: The (pmo_id, pmo) of an event of no PMO.
_NO_PMO = (None, None)


def _events(seqs: Iterable[int], ats: Iterable, entities: Iterable,
            durations: Iterable, kinds: Iterable[str],
            pairs: Iterable[Tuple], reasons: Iterable[str]) -> Tuple:
    """Events' columns, in :data:`_FIELDS` order, of the ring's."""
    return (seqs, kinds, ats, entities, map(itemgetter(0), pairs),
            map(itemgetter(1), pairs), durations, reasons)


class AuditTimeline:
    """Bounded event log + exact cumulative exposure accounting."""

    def __init__(self, *, capacity: int = 65536,
                 enabled: bool = True) -> None:
        self.enabled = enabled
        self.capacity = capacity
        # A ring (repro.obs.ring) of at_ns, entity and duration_ns; the
        # kind as a byte and (pmo_id, pmo) as an int, each a code into
        # its column's table (the pairs' no longer than ``_per_pmo``);
        # the reason by reference.  Its lock is the timeline's: one lock
        # section per event keeps the seq and the stats atomic together.
        self.ring = ring.Ring(_FIELDS, "qqqBiO", _events, capacity)
        self._lock, self._put = self.ring.lock, self.ring.put
        #: the one copy of each sweep's "closed N window(s)"
        self._sweep_reasons: Dict[str, str] = {}
        #: (entity, pmo_id) -> attach timestamp of the open window
        self._open: Dict[Tuple[Optional[int], Hashable], int] = {}
        #: pmo_id -> cumulative per-PMO stats (never rolls off)
        self._per_pmo: Dict[Hashable, Dict[str, Any]] = {}
        self.sweeps = 0
        self.faults_injected = 0

    @property
    def events_recorded(self) -> int:
        return self.ring.written

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
            self._put(at_ns, entity, None, ATTACH, (pmo_id, pmo_name),
                      reason)

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
            self._put(at_ns, entity, duration,
                      FORCED_DETACH if forced else DETACH,
                      (pmo_id, pmo_name), reason)

    def record_sweep(self, at_ns: int, *, closed: int,
                     duration_ns: Optional[int] = None) -> None:
        """One sweeper pass closed ``closed`` windows."""
        if not self.enabled:
            return
        with self._lock:
            self.sweeps += 1
            reason = f"closed {closed} window(s)"
            reason = self._sweep_reasons.setdefault(reason, reason)
            self._put(at_ns, None, duration_ns, SWEEP, _NO_PMO, reason)

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
            self._put(at_ns, None, None, FAULT, _NO_PMO, reason)

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
            self._put(at_ns, None, max(0, downtime_ns), RESTART,
                      _NO_PMO, detail)

    def record_scrub(self, at_ns: int, *, verified: int,
                     repaired: int, quarantined: int) -> None:
        """One bounded integrity-scrub pass finished.

        Only recorded when the pass found damage — an all-clean scrub
        would flood the ring at one event per sweep.
        """
        if not self.enabled or (repaired == 0 and quarantined == 0):
            return
        with self._lock:
            self._put(at_ns, None, None, SCRUB, _NO_PMO,
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
            self._put(at_ns, None, None, QUARANTINE, (pmo_id, pmo_name),
                      reason)

    # -- querying ---------------------------------------------------------

    def snapshot(self, *, pmo: Optional[Hashable] = None,
                 kind: Optional[str] = None,
                 limit: Optional[int] = None) -> ring.Rows:
        """The one reader: the newest ``limit`` retained events (of PMO
        ``pmo``, id or name, and of ``kind``), copied out of the ring
        — decoded (:meth:`events`) or encoded (a ``trace`` answer) with
        its lock released."""
        return self.ring.read(limit, kind, None if pmo is None else (
            4, lambda pair: pmo in pair))      # the pair column

    def events(self, *, pmo: Optional[Hashable] = None,
               kind: Optional[str] = None,
               limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Retained events in sequence order, optionally filtered by
        PMO (id or name) and/or kind, optionally the last ``limit``."""
        return list(map(dict, map(zip, repeat(_FIELDS), self.snapshot(
            pmo=pmo, kind=kind, limit=limit))))

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
