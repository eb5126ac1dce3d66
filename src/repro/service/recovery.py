"""terpd warm restart: the session journal and the recovery manager.

A PMO "lives beyond process termination" (Section II) — and with the
durable pool backend it genuinely does.  But temporal protection is a
property of *time*, not of process lifetime: a tenant's exposure
window does not close just because the daemon hosting it died.  This
module makes the exposure clock count through the outage:

* :class:`SessionJournal` — an append-only JSONL file in the pool
  directory recording the service's wall-clock **epoch**, every
  session's identity (id, user, resume token, EW budget), and every
  attach/detach.  Appends are flushed immediately, so the journal
  survives ``kill -9`` (the OS page cache outlives the process; media
  power-loss is the durable store's double-write problem, not the
  journal's).
* :class:`RecoveryManager` — at restart with the same ``--pool-dir``:
  rescans the pool (CRC verification, journal repair, redo-log replay,
  quarantine), replays the session journal to rebuild the audit
  timeline with the *original* timestamps, restores surviving sessions
  in the lingering state (same resume token, so a client that outlived
  the crash rebinds with the token it already holds), and — before the
  first request is served — force-detaches every holding that was open
  when the daemon died.  A holding whose EW budget elapsed during the
  outage is attributed ``EW budget elapsed during daemon outage`` on
  the timeline; the invariant checker's I6 verifies exactly this.

Because the service clock with a pool directory is
``time.time_ns() - epoch_wall_ns`` (epoch persisted on first start),
timestamps from before the crash and after the restart live on one
unbroken axis: the outage is *visible* as elapsed exposure, never
silently forgiven.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.service.server import TerpService

JOURNAL_NAME = "sessions.journal"


class SessionJournal:
    """Append-only JSONL record of session identity and exposure."""

    def __init__(self, pool_dir: os.PathLike) -> None:
        self.path = Path(pool_dir) / JOURNAL_NAME
        self._fh = None
        #: optional replication mirror: every appended record is also
        #: handed here (the shipper's ``ship_journal``), so a promoted
        #: standby recovers sessions/epoch exactly as a warm restart
        #: on the primary's own directory would.
        self.mirror: Optional[Any] = None

    # -- writing -----------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()
        if self.mirror is not None:
            self.mirror(record)

    def record(self, rec: str, **fields: Any) -> None:
        """Append one ``rec`` record (``epoch`` / ``session`` /
        ``attach`` / ``detach`` / ``close`` / ``restart``)."""
        if rec == "detach":
            fields = {"forced": False, "reason": "", **fields}
        self._append({"rec": rec, **fields})

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading -----------------------------------------------------------

    def read_records(self) -> List[Dict[str, Any]]:
        """Every parseable record, in append order.

        A torn final line (the crash interrupted an append) is
        discarded, mirroring the redo log's torn-tail rule.
        """
        try:
            raw = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        records = []
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "rec" in record:
                records.append(record)
        return records

    def compact(self, records: List[Dict[str, Any]]) -> None:
        """Rewrite the journal to exactly ``records`` (post-recovery:
        the epoch, the restart marker, and surviving sessions — the
        replayed history has been folded into the audit timeline)."""
        self.close()
        tmp = self.path.with_suffix(".journal.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, separators=(",", ":"))
                         + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)


@dataclass
class _JournaledSession:
    sid: int
    user: str
    token: str
    budget_ns: int
    opened_at_ns: int
    #: pmo_id -> (attach at_ns, pmo name) for still-open holdings
    holdings: Dict[int, Tuple[int, str]] = field(default_factory=dict)


@dataclass
class RecoveryReport:
    """What one warm restart found and did."""

    epoch_wall_ns: int = 0
    downtime_ns: int = 0
    pmos_loaded: int = 0
    pmos_quarantined: List[Tuple[str, str]] = field(
        default_factory=list)
    pmos_denied: List[Tuple[str, str]] = field(default_factory=list)
    pages_repaired: int = 0
    sessions_restored: int = 0
    forced_detaches: int = 0
    overdue_detaches: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class RecoveryManager:
    """Rebuilds a :class:`TerpService` from its pool directory."""

    def __init__(self, service: "TerpService") -> None:
        self.service = service

    def recover(self) -> RecoveryReport:
        """The warm-restart sequence; runs before any socket binds.

        1. Rescan the pool: apply double-write journals, verify CRCs,
           replay redo logs, quarantine unrepairable PMOs.
        2. Replay the session journal: adopt the persisted wall-clock
           epoch (the unbroken exposure axis), restore surviving
           sessions as *lingering* (identity + token, never access),
           and rebuild the audit timeline with original timestamps.
        3. Force-detach every holding that was open at the crash —
           overdue ones attributed to the outage — and journal it.
        4. Compact the journal to the surviving state.
        """
        svc = self.service
        report = RecoveryReport()
        self._recover_pool(report)
        records = svc.session_journal.read_records()
        epoch = next((r["wall_ns"] for r in records
                      if r["rec"] == "epoch"), None)
        first_start = epoch is None
        if first_start:
            epoch = svc.wall_clock_ns()
        svc.adopt_epoch(epoch)
        report.epoch_wall_ns = epoch
        if first_start:
            svc.session_journal.record("epoch", wall_ns=epoch)
            return report

        sessions = self._replay(records, report)
        now = svc.now_ns()
        last_seen = max((r.get("at_ns", 0) for r in records), default=0)
        report.downtime_ns = max(0, now - last_seen)
        svc.lib.advance_to(now)
        if svc.obs.enabled:
            svc.obs.audit.record_restart(
                now, downtime_ns=report.downtime_ns,
                sessions_restored=len(sessions))
        svc.session_journal.record(
            "restart", at_ns=now, downtime_ns=report.downtime_ns)

        survivors = []
        for js in sessions.values():
            session = svc.sessions.restore(
                session_id=js.sid, user=js.user,
                ew_budget_ns=js.budget_ns, resume_token=js.token,
                disconnected_at_ns=now)
            report.sessions_restored += 1
            survivors.append(js)
            # Access never survives a crash: close every window that
            # was open when the daemon died, on the unbroken clock.
            for pmo_id, (since, name) in sorted(js.holdings.items()):
                overdue = now - since >= js.budget_ns
                reason = ("EW budget elapsed during daemon outage"
                          if overdue else "daemon restart")
                if svc.obs.enabled:
                    svc.obs.audit.record_detach(
                        session.entity_id, pmo_id, name, now,
                        forced=True, reason=reason)
                session.note_forced_detach(pmo_id, name, now, reason)
                svc.session_journal.record(
                    "detach", sid=js.sid, pmo_id=pmo_id, pmo=name,
                    at_ns=now, forced=True, reason=reason)
                report.forced_detaches += 1
                if overdue:
                    report.overdue_detaches += 1
        svc.metrics.note_recovery(
            sessions=report.sessions_restored,
            forced_detaches=report.forced_detaches)

        compacted: List[Dict[str, Any]] = [
            {"rec": "epoch", "wall_ns": epoch},
            {"rec": "restart", "at_ns": now,
             "downtime_ns": report.downtime_ns},
        ]
        for js in survivors:
            compacted.append({"rec": "session", "sid": js.sid,
                              "user": js.user, "token": js.token,
                              "budget_ns": js.budget_ns,
                              "at_ns": js.opened_at_ns})
        svc.session_journal.compact(compacted)
        return report

    # -- internals ---------------------------------------------------------

    def _recover_pool(self, report: RecoveryReport) -> None:
        svc = self.service
        load = svc.store.load_all()
        for pmo in load.loaded:
            svc.lib.manager.adopt(pmo)
            report.pmos_loaded += 1
        report.pages_repaired = load.pages_repaired
        report.pmos_quarantined = list(load.quarantined)
        report.pmos_denied = list(load.denied)
        now = svc.lib.clock_ns
        for name, reason in load.quarantined:
            try:
                pmo_id: Any = svc.lib.manager.lookup(name).pmo_id
            except Exception:
                pmo_id = name
            if svc.obs.enabled:
                svc.obs.audit.record_quarantine(pmo_id, name, now,
                                                reason=reason)
            svc.metrics.series["pmos_quarantined"].inc()
        for name, reason in load.denied:
            if svc.obs.enabled:
                svc.obs.audit.record_quarantine(name, name, now,
                                                reason=f"denied: "
                                                       f"{reason}")
            svc.metrics.series["pmos_quarantined"].inc()

    def _replay(self, records: List[Dict[str, Any]],
                report: RecoveryReport
                ) -> Dict[int, _JournaledSession]:
        """Fold the journal into live sessions + the audit timeline.

        Attach/detach history is re-recorded with its original
        timestamps so the restarted daemon's timeline is a superset of
        the crashed one's: the invariant checker sees one continuous
        story across the outage.
        """
        svc = self.service
        entity = svc.sessions.FIRST_ENTITY_ID
        sessions: Dict[int, _JournaledSession] = {}
        for r in records:
            kind = r["rec"]
            if kind == "session":
                sessions[r["sid"]] = _JournaledSession(
                    sid=r["sid"], user=r.get("user", "root"),
                    token=r.get("token", ""),
                    budget_ns=r.get("budget_ns",
                                    svc.sessions.default_ew_budget_ns),
                    opened_at_ns=r.get("at_ns", 0))
            elif kind == "attach":
                js = sessions.get(r["sid"])
                if js is None:
                    continue
                js.holdings[r["pmo_id"]] = (r["at_ns"],
                                            r.get("pmo", ""))
                if svc.obs.enabled:
                    svc.obs.audit.record_attach(
                        entity + js.sid, r["pmo_id"], r.get("pmo"),
                        r["at_ns"], reason="replayed from journal")
            elif kind == "detach":
                js = sessions.get(r["sid"])
                if js is None:
                    continue
                js.holdings.pop(r["pmo_id"], None)
                if svc.obs.enabled:
                    svc.obs.audit.record_detach(
                        entity + js.sid, r["pmo_id"], r.get("pmo"),
                        r["at_ns"], forced=bool(r.get("forced")),
                        reason=r.get("reason", "") or
                        "replayed from journal")
            elif kind == "close":
                sessions.pop(r["sid"], None)
        return sessions
