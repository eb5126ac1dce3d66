"""The temporal-protection theorem, checked against the audit record.

The paper's central temporal claim (Section 3): under EW-Conscious
semantics no PMO stays attached past its exposure-window target, no
matter what threads, sweeps, or failures do.  The PR-2 audit timeline
records every attach/detach/forced-detach with entity, PMO, and held
duration; this module *replays* that record after a (possibly heavily
faulted) run and asserts the invariants the theorem implies:

I1  **bounded exposure** — every closed held-window is at most the
    enforced EW budget plus the sweep slack (the sweeper only runs
    every period, and injected sweeper stalls widen the slack — they
    may *delay* enforcement, never lose it);
I2  **no overlap** — a given entity never opens a second window on a
    PMO while its first is still open (per-thread EWs never overlap);
I3  **attributed force** — every forced-detach event carries a
    non-empty reason (an operator can always answer *who closed this
    window and why*);
I4  **exact pairing** — the cumulative per-PMO exposure statistics
    match what re-pairing the attach/detach events yields, exactly
    (the aggregate and the event stream cannot drift apart);
I5  **eventual closure** — at the chosen end-of-run instant, no
    window is still open;
I6  **exposure bounded across restart** — a ``restart`` event marks a
    whole-process crash whose ``duration_ns`` is the outage.  Windows
    that were open across the outage get the downtime added to their
    I1 allowance (the clock counted, the enforcement could not run),
    but in exchange every such window must be closed *forced* within
    the slack after the restart instant: recovery may never hand a
    pre-crash window back to its holder.
I7  **zero acknowledged-write loss** — every write whose ``psync``
    the client saw acked before the primary died is present on the
    promoted standby.  Checked by :func:`check_acked_writes` over
    per-writer monotone counters: the value read back after failover
    must be at least the last value whose durability ack the writer
    received (a *later*, never-acked write surviving is allowed —
    only losing an acked one is a violation).

:func:`check_events` is the one replay, over a plain event list (a
live :class:`~repro.obs.audit.AuditTimeline`'s ``events()``, or a
synthetic timeline in tests).  A caller whose ring has wrapped passes
no ``summary``: the events needed to re-pair it have rolled off, so
the exact-pairing comparison would be a false alarm (the chaos engine
does this per scope).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.core.record import field, record
from repro.obs.audit import ATTACH, DETACH, FORCED_DETACH, RESTART

__all__ = ["Violation", "InvariantReport", "check_events",
           "check_acked_writes"]


@record(frozen=True)
class Violation:
    """One invariant breach, with enough context to debug it."""

    invariant: str            # "bounded-exposure", "overlap", ...
    detail: str
    event: Optional[Dict[str, Any]] = None

    def __str__(self) -> str:
        suffix = f" | event={self.event}" if self.event else ""
        return f"[{self.invariant}] {self.detail}{suffix}"


@record
class InvariantReport:
    """The verdict of one replay of the audit record."""

    violations: List[Violation] = field(default_factory=list)
    windows_checked: int = 0
    events_checked: int = 0
    max_held_ns: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return (f"OK: {self.windows_checked} windows / "
                    f"{self.events_checked} events, "
                    f"max held {self.max_held_ns / 1e6:.3f}ms")
        lines = [f"{len(self.violations)} violation(s) over "
                 f"{self.windows_checked} windows:"]
        lines.extend(str(v) for v in self.violations)
        return "\n".join(lines)


def check_events(events: List[Dict[str, Any]], *,
                 ew_budget_ns: Optional[int] = None,
                 slack_ns: int = 0,
                 summary: Optional[Dict[str, Any]] = None,
                 open_windows: Optional[List[Dict[str, Any]]] = None,
                 ) -> InvariantReport:
    """Replay audit events and check invariants I1-I6.

    ``ew_budget_ns``  the enforced per-entity budget; ``None`` skips
                      the bounded-exposure check (I1).
    ``slack_ns``      enforcement slack added on top of the budget —
                      at least the sweep period, plus one period per
                      injected sweeper stall, plus scheduling jitter.
    ``summary``       an :meth:`AuditTimeline.summary` dict; when
                      given, per-PMO cumulative stats are re-derived
                      from the events and compared exactly (I4).
    ``open_windows``  :meth:`AuditTimeline.open_windows` at end of
                      run; non-empty is a violation (I5).
    """
    report = InvariantReport()
    open_at: Dict[Tuple[Optional[int], Hashable], int] = {}
    derived: Dict[Hashable, Dict[str, Any]] = {}
    #: restarts seen so far: (restart at_ns, downtime_ns)
    restarts: List[Tuple[int, int]] = []
    #: windows open at the last restart: key -> restart at_ns (I6)
    pending_restart: Dict[Tuple[Optional[int], Hashable], int] = {}

    def stats_for(pmo_id: Hashable, pmo_name: Any) -> Dict[str, Any]:
        st = derived.get(pmo_id)
        if st is None:
            st = {"pmo": pmo_name, "attaches": 0, "detaches": 0,
                  "forced_detaches": 0, "windows": 0,
                  "held_total_ns": 0, "held_max_ns": 0}
            derived[pmo_id] = st
        elif st["pmo"] is None and pmo_name is not None:
            st["pmo"] = pmo_name
        return st

    for event in events:
        report.events_checked += 1
        kind = event.get("kind")
        key = (event.get("entity"), event.get("pmo_id"))
        at_ns = event.get("at_ns", 0)
        if kind == ATTACH:
            stats_for(key[1], event.get("pmo"))["attaches"] += 1
            if key in open_at:
                report.violations.append(Violation(
                    "overlap",
                    f"entity {key[0]} attached PMO {key[1]!r} at "
                    f"{at_ns} while its window from {open_at[key]} "
                    f"was still open", event))
            else:
                open_at[key] = at_ns
        elif kind in (DETACH, FORCED_DETACH):
            forced = kind == FORCED_DETACH
            st = stats_for(key[1], event.get("pmo"))
            st["forced_detaches" if forced else "detaches"] += 1
            if forced and not event.get("reason"):
                report.violations.append(Violation(
                    "attributed-force",
                    f"forced detach of PMO {key[1]!r} by entity "
                    f"{key[0]} carries no reason", event))
            since = open_at.pop(key, None)
            duration = event.get("duration_ns")
            if since is None:
                # A detach that closed nothing is only legitimate as
                # the defined silent no-op (duration is None).
                if duration is not None:
                    report.violations.append(Violation(
                        "pairing",
                        f"detach of PMO {key[1]!r} by entity {key[0]} "
                        f"reports duration {duration} but no window "
                        f"was open", event))
                continue
            held = max(0, at_ns - since)
            if duration is None or duration != held:
                report.violations.append(Violation(
                    "pairing",
                    f"detach of PMO {key[1]!r} by entity {key[0]} "
                    f"reports duration {duration!r}, replay says "
                    f"{held}", event))
            report.windows_checked += 1
            st["windows"] += 1
            st["held_total_ns"] += held
            st["held_max_ns"] = max(st["held_max_ns"], held)
            report.max_held_ns = max(report.max_held_ns, held)
            # I6 (half 1): a window open across an outage gets the
            # downtime added to its allowance — the exposure clock
            # counted through the crash, the sweeper could not run.
            downtime = sum(d for r_at, d in restarts
                           if since < r_at <= at_ns)
            if ew_budget_ns is not None and \
                    held > ew_budget_ns + slack_ns + downtime:
                report.violations.append(Violation(
                    "bounded-exposure",
                    f"entity {key[0]} held PMO {key[1]!r} for "
                    f"{held / 1e6:.3f}ms, budget "
                    f"{ew_budget_ns / 1e6:.3f}ms + slack "
                    f"{slack_ns / 1e6:.3f}ms + outage "
                    f"{downtime / 1e6:.3f}ms", event))
            # I6 (half 2): recovery must have closed it *forced*,
            # promptly after the restart — never handed it back.
            restart_at = pending_restart.pop(key, None)
            if restart_at is not None:
                if not forced:
                    report.violations.append(Violation(
                        "restart-exposure",
                        f"window of entity {key[0]} on PMO {key[1]!r} "
                        f"was open across a restart but closed "
                        f"voluntarily — recovery handed access back",
                        event))
                elif at_ns > restart_at + slack_ns:
                    report.violations.append(Violation(
                        "restart-exposure",
                        f"window of entity {key[0]} on PMO {key[1]!r} "
                        f"open across the restart at {restart_at} was "
                        f"not force-closed until {at_ns} "
                        f"(> slack {slack_ns / 1e6:.3f}ms after)",
                        event))
        elif kind == RESTART:
            restarts.append((at_ns, event.get("duration_ns") or 0))
            for key_open in open_at:
                pending_restart[key_open] = at_ns
        # sweep / fault events carry no window state to replay

    for key, restart_at in pending_restart.items():
        if key in open_at:
            report.violations.append(Violation(
                "restart-exposure",
                f"window of entity {key[0]} on PMO {key[1]!r} was "
                f"open across the restart at {restart_at} and never "
                f"closed"))
    if summary is not None:
        _check_pairing(report, derived, summary)
    if open_windows:
        for window in open_windows:
            report.violations.append(Violation(
                "eventual-closure",
                f"window of entity {window.get('entity')} on PMO "
                f"{window.get('pmo_id')!r} still open since "
                f"{window.get('since_ns')}", dict(window)))
    return report


def _check_pairing(report: InvariantReport,
                   derived: Dict[Hashable, Dict[str, Any]],
                   summary: Dict[str, Any]) -> None:
    """I4: derived per-PMO stats must equal the cumulative summary."""
    recorded: Dict[str, Dict[str, Any]] = summary.get("per_pmo", {})
    fields = ("attaches", "detaches", "forced_detaches", "windows",
              "held_total_ns", "held_max_ns")
    derived_by_name = {
        str(st["pmo"] if st["pmo"] is not None else pmo_id): st
        for pmo_id, st in derived.items()}
    for name in sorted(set(recorded) | set(derived_by_name)):
        want = derived_by_name.get(name)
        have = recorded.get(name)
        if want is None or have is None:
            report.violations.append(Violation(
                "exact-pairing",
                f"PMO {name!r} present in "
                f"{'summary' if want is None else 'events'} only"))
            continue
        for field_name in fields:
            if want[field_name] != have.get(field_name):
                report.violations.append(Violation(
                    "exact-pairing",
                    f"PMO {name!r} {field_name}: events say "
                    f"{want[field_name]}, summary says "
                    f"{have.get(field_name)}"))


def check_acked_writes(observed: Dict[Hashable, Optional[int]],
                       acked: Dict[Hashable, int],
                       ) -> InvariantReport:
    """Invariant I7: zero acknowledged-write loss across failover.

    ``acked``     per writer, the *last value* whose ``psync`` ack the
                  client received before the primary died.  Writers
                  write monotonically increasing values, so one
                  integer summarises everything durably promised.
    ``observed``  per writer, the value read back from the promoted
                  standby (``None``: the location is gone entirely).

    The promoted standby may legitimately hold *more* than was acked
    (a later write whose ack never reached the client still committed
    and shipped) — I7 only forbids holding less.
    """
    report = InvariantReport()
    for writer, promised in sorted(acked.items(), key=str):
        report.events_checked += 1
        value = observed.get(writer)
        if value is None:
            report.violations.append(Violation(
                "acked-write-loss",
                f"writer {writer!r}: value {promised} was acked "
                f"durable, but the location is missing after "
                f"failover"))
        elif value < promised:
            report.violations.append(Violation(
                "acked-write-loss",
                f"writer {writer!r}: last acked value {promised}, "
                f"but the promoted standby reads back {value}"))
    return report
