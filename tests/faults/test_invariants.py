"""The invariant checker: clean timelines pass, each breach is caught."""

from repro.faults.invariants import check_events
from repro.obs.audit import AuditTimeline


def attach(entity, pmo_id, at, name="data"):
    return {"kind": "attach", "entity": entity, "pmo_id": pmo_id,
            "pmo": name, "at_ns": at, "duration_ns": None,
            "reason": "performed"}


def detach(entity, pmo_id, at, duration, *, forced=False,
           reason="performed", name="data"):
    return {"kind": "forced-detach" if forced else "detach",
            "entity": entity, "pmo_id": pmo_id, "pmo": name,
            "at_ns": at, "duration_ns": duration, "reason": reason}


class TestCleanTimelines:
    def test_empty_is_ok(self):
        report = check_events([])
        assert report.ok
        assert report.windows_checked == 0

    def test_simple_pair_is_ok(self):
        report = check_events(
            [attach(1, 10, 0), detach(1, 10, 50, 50)],
            ew_budget_ns=100)
        assert report.ok
        assert report.windows_checked == 1
        assert report.max_held_ns == 50

    def test_forced_close_with_reason_is_ok(self):
        report = check_events(
            [attach(1, 10, 0),
             detach(1, 10, 90, 90, forced=True, reason="budget")],
            ew_budget_ns=100)
        assert report.ok

    def test_silent_noop_detach_is_ok(self):
        # A detach closing nothing with duration None is the defined
        # silent outcome (racing the sweeper), not a pairing breach.
        report = check_events(
            [attach(1, 10, 0),
             detach(1, 10, 50, 50, forced=True, reason="sweeper"),
             detach(1, 10, 60, None)])
        assert report.ok

    def test_sequential_windows_same_pair_ok(self):
        report = check_events(
            [attach(1, 10, 0), detach(1, 10, 40, 40),
             attach(1, 10, 50), detach(1, 10, 70, 20)],
            ew_budget_ns=100)
        assert report.ok
        assert report.windows_checked == 2

    def test_two_entities_may_hold_concurrently(self):
        # Per-thread EWs must not overlap; windows of *different*
        # entities on the same PMO legitimately do (window combining).
        report = check_events(
            [attach(1, 10, 0), attach(2, 10, 10),
             detach(1, 10, 40, 40), detach(2, 10, 50, 40)])
        assert report.ok


class TestEachInvariantCatches:
    def test_i1_bounded_exposure(self):
        report = check_events(
            [attach(1, 10, 0), detach(1, 10, 500, 500)],
            ew_budget_ns=100, slack_ns=50)
        assert not report.ok
        assert report.violations[0].invariant == "bounded-exposure"

    def test_i1_respects_slack(self):
        report = check_events(
            [attach(1, 10, 0), detach(1, 10, 140, 140)],
            ew_budget_ns=100, slack_ns=50)
        assert report.ok

    def test_i2_overlap(self):
        report = check_events(
            [attach(1, 10, 0), attach(1, 10, 10)])
        assert any(v.invariant == "overlap"
                   for v in report.violations)

    def test_i3_unattributed_force(self):
        report = check_events(
            [attach(1, 10, 0),
             detach(1, 10, 50, 50, forced=True, reason="")])
        assert any(v.invariant == "attributed-force"
                   for v in report.violations)

    def test_i4_duration_must_match_replay(self):
        report = check_events(
            [attach(1, 10, 0), detach(1, 10, 50, 999)])
        assert any(v.invariant == "pairing"
                   for v in report.violations)

    def test_i4_phantom_duration(self):
        report = check_events([detach(1, 10, 50, 50)])
        assert any(v.invariant == "pairing"
                   for v in report.violations)

    def test_i4_summary_drift(self):
        events = [attach(1, 10, 0), detach(1, 10, 50, 50)]
        summary = {"per_pmo": {"data": {
            "pmo": "data", "attaches": 2, "detaches": 1,
            "forced_detaches": 0, "windows": 1,
            "held_total_ns": 50, "held_max_ns": 50}}}
        report = check_events(events, summary=summary)
        assert any(v.invariant == "exact-pairing"
                   for v in report.violations)

    def test_i5_open_window_at_end(self):
        report = check_events(
            [attach(1, 10, 0)],
            open_windows=[{"entity": 1, "pmo_id": 10, "since_ns": 0}])
        assert any(v.invariant == "eventual-closure"
                   for v in report.violations)


def check_live(audit, *, at_end=True, **kwargs):
    return check_events(
        audit.events(), summary=audit.summary(),
        open_windows=audit.open_windows() if at_end else None, **kwargs)


class TestAgainstLiveTimeline:
    def test_real_timeline_roundtrip(self):
        audit = AuditTimeline()
        audit.record_attach(1, 10, "data", 0)
        audit.record_detach(1, 10, "data", 60, forced=False)
        audit.record_attach(2, 10, "data", 100)
        audit.record_detach(2, 10, "data", 180, forced=True,
                            reason="budget elapsed")
        audit.record_sweep(200, closed=1)
        report = check_live(audit, ew_budget_ns=100, slack_ns=0)
        assert report.ok, report.describe()
        assert report.windows_checked == 2

    def test_still_open_window_flagged(self):
        audit = AuditTimeline()
        audit.record_attach(1, 10, "data", 0)
        report = check_live(audit)
        assert any(v.invariant == "eventual-closure"
                   for v in report.violations)
        report = check_live(audit, at_end=False)
        assert report.ok

    # A wrapped ring's caller passes no summary: the events needed to
    # re-pair it have rolled off.

    def test_wrapped_ring_degrades_gracefully(self):
        audit = AuditTimeline(capacity=8)
        for i in range(20):
            audit.record_attach(1, 10, "data", i * 100)
            audit.record_detach(1, 10, "data", i * 100 + 50, forced=False)
        assert audit.events_recorded > audit.capacity
        assert not check_live(audit).ok       # pairing: a false alarm
        report = check_events(audit.events(), ew_budget_ns=100)
        assert report.ok, report.describe()

    def test_wrapped_ring_still_bounds_exposure(self):
        audit = AuditTimeline(capacity=4)
        for i in range(10):
            audit.record_attach(1, 10, "data", i * 1000)
            audit.record_detach(1, 10, "data", i * 1000 + 900,
                                forced=False)
        report = check_events(audit.events(), ew_budget_ns=100,
                              slack_ns=0)
        assert not report.ok
        assert any(v.invariant == "bounded-exposure"
                   for v in report.violations)


def restart(at, downtime):
    return {"kind": "restart", "entity": None, "pmo_id": None,
            "pmo": None, "at_ns": at, "duration_ns": downtime,
            "reason": "warm restart"}


class TestI6RestartExposure:
    """I6: exposure bounded across restart — the outage extends the
    allowance exactly once, and recovery must force-close, promptly,
    every window that was open across it."""

    def test_forced_close_at_restart_is_ok(self):
        # Attach at 0, crash, 400ns outage, recovery closes forced.
        report = check_events(
            [attach(1, 10, 0), restart(450, 400),
             detach(1, 10, 450, 450, forced=True,
                    reason="EW budget elapsed during daemon outage")],
            ew_budget_ns=100, slack_ns=50)
        assert report.ok, report.describe()

    def test_outage_extends_allowance_only_for_spanning_windows(self):
        # A window opened *after* the restart gets no outage credit.
        report = check_events(
            [restart(100, 400),
             attach(1, 10, 200), detach(1, 10, 700, 500)],
            ew_budget_ns=100, slack_ns=50)
        assert not report.ok
        assert report.violations[0].invariant == "bounded-exposure"

    def test_voluntary_close_across_restart_violates(self):
        # Recovery may never hand a pre-crash window back.
        report = check_events(
            [attach(1, 10, 0), restart(450, 400),
             detach(1, 10, 460, 460)],
            ew_budget_ns=100, slack_ns=50)
        assert not report.ok
        assert any(v.invariant == "restart-exposure"
                   for v in report.violations)

    def test_late_forced_close_after_restart_violates(self):
        # Forced, but long after the restart instant: enforcement
        # cannot lag recovery by more than the slack.
        report = check_events(
            [attach(1, 10, 0), restart(450, 400),
             detach(1, 10, 900, 900, forced=True, reason="late")],
            ew_budget_ns=100, slack_ns=50)
        assert not report.ok
        assert any(v.invariant == "restart-exposure"
                   for v in report.violations)

    def test_never_closed_after_restart_violates(self):
        report = check_events(
            [attach(1, 10, 0), restart(450, 400)],
            ew_budget_ns=100, slack_ns=50)
        assert not report.ok
        assert any(v.invariant == "restart-exposure"
                   for v in report.violations)

    def test_window_closed_before_restart_unaffected(self):
        report = check_events(
            [attach(1, 10, 0), detach(1, 10, 80, 80),
             restart(450, 400),
             attach(1, 10, 500), detach(1, 10, 560, 60)],
            ew_budget_ns=100, slack_ns=50)
        assert report.ok, report.describe()

    def test_two_restarts_both_credited(self):
        # A window spanning two outages gets both downtimes.
        report = check_events(
            [attach(1, 10, 0),
             restart(200, 150), restart(500, 250),
             detach(1, 10, 500, 500, forced=True, reason="outage")],
            ew_budget_ns=100, slack_ns=50)
        assert report.ok, report.describe()
