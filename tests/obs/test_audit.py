"""Audit timeline semantics: ordering, durations, ring-wrap exactness."""

import threading

import pytest

from repro.obs.audit import ATTACH, DETACH, FORCED_DETACH, AuditTimeline
from repro.obs.tracing import Tracer


class TestDurations:
    def test_attach_detach_pairs_measure_held_time(self):
        timeline = AuditTimeline()
        timeline.record_attach(1, 7, "pmoA", 1_000)
        timeline.record_detach(1, 7, "pmoA", 4_000)
        [attach, detach] = timeline.events()
        assert attach["kind"] == ATTACH
        assert attach["duration_ns"] is None
        assert detach["kind"] == DETACH
        assert detach["duration_ns"] == 3_000
        summary = timeline.summary()
        assert summary["windows"] == 1
        assert summary["held_mean_ns"] == 3_000
        assert summary["held_max_ns"] == 3_000

    def test_silent_reattach_keeps_earliest_start(self):
        """Exposure began at the first attach; a silent re-attach
        inside the combined window must not reset the clock."""
        timeline = AuditTimeline()
        timeline.record_attach(1, 7, "pmoA", 1_000)
        timeline.record_attach(1, 7, "pmoA", 2_000, reason="silent")
        timeline.record_detach(1, 7, "pmoA", 5_000)
        detach = timeline.events(kind=DETACH)[0]
        assert detach["duration_ns"] == 4_000

    def test_forced_detach_classified_separately(self):
        timeline = AuditTimeline()
        timeline.record_attach(1, 7, "pmoA", 0)
        timeline.record_detach(1, 7, "pmoA", 9_000, forced=True,
                               reason="budget elapsed")
        [event] = timeline.events(kind=FORCED_DETACH)
        assert event["reason"] == "budget elapsed"
        summary = timeline.summary()
        assert summary["forced_detaches"] == 1
        assert summary["detaches"] == 0
        assert summary["windows"] == 1

    def test_windows_tracked_per_entity(self):
        """Two entities holding the same PMO are two windows."""
        timeline = AuditTimeline()
        timeline.record_attach(1, 7, "pmoA", 0)
        timeline.record_attach(2, 7, "pmoA", 1_000)
        assert len(timeline.open_windows(2_000)) == 2
        timeline.record_detach(1, 7, "pmoA", 3_000)
        [window] = timeline.open_windows(4_000)
        assert window["entity"] == 2
        assert window["age_ns"] == 3_000
        timeline.record_detach(2, 7, "pmoA", 5_000)
        assert timeline.open_windows() == []
        assert timeline.summary()["per_pmo"]["pmoA"]["windows"] == 2

    def test_events_filter_by_pmo_name_or_id(self):
        timeline = AuditTimeline()
        timeline.record_attach(1, 7, "pmoA", 0)
        timeline.record_attach(1, 8, "pmoB", 0)
        assert len(timeline.events(pmo="pmoA")) == 1
        assert len(timeline.events(pmo=8)) == 1
        assert timeline.events(pmo="pmoA")[0]["pmo"] == "pmoA"


class TestConcurrentOrdering:
    def test_seq_total_order_across_sessions(self):
        """N concurrent sessions; every event gets a unique seq and
        the retained log reads back strictly increasing."""
        timeline = AuditTimeline()
        sessions, rounds = 8, 50
        start = threading.Barrier(sessions)

        def session(entity: int) -> None:
            start.wait(5.0)
            for i in range(rounds):
                at = entity * 1_000_000 + i * 10
                timeline.record_attach(entity, 7, "shared", at)
                timeline.record_detach(entity, 7, "shared", at + 5)

        workers = [threading.Thread(target=session, args=(e,))
                   for e in range(sessions)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30.0)

        events = timeline.events()
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
        # Nothing lost: the counters saw every event exactly once.
        summary = timeline.summary()
        assert summary["events"] == sessions * rounds * 2
        assert summary["attaches"] == sessions * rounds
        assert summary["detaches"] == sessions * rounds
        assert summary["open_windows"] == 0
        # Per entity, the interleaving is still attach/detach/attach...
        for entity in range(sessions):
            kinds = [e["kind"] for e in events
                     if e["entity"] == entity]
            assert kinds == [ATTACH, DETACH] * (len(kinds) // 2)


class TestRingWrap:
    def test_summary_exact_after_ring_wraps(self):
        """The ring forgets events; the summary must not."""
        timeline = AuditTimeline(capacity=8)
        windows = 100
        for i in range(windows):
            timeline.record_attach(1, 7, "pmoA", i * 100)
            timeline.record_detach(1, 7, "pmoA", i * 100 + 60)
        assert len(timeline.events()) == 8        # ring-bounded
        summary = timeline.summary()
        assert summary["events"] == windows * 2   # exact
        assert summary["attaches"] == windows
        assert summary["detaches"] == windows
        assert summary["windows"] == windows
        assert summary["held_mean_ns"] == 60
        assert summary["held_max_ns"] == 60

    def test_sweep_events_counted(self):
        timeline = AuditTimeline()
        timeline.record_sweep(1_000, closed=2, duration_ns=50)
        [event] = timeline.events(kind="sweep")
        assert event["reason"] == "closed 2 window(s)"
        assert event["duration_ns"] == 50
        assert timeline.summary()["sweeps"] == 1


CAP = 32


@pytest.mark.parametrize("limit", [0, 1, CAP, CAP + 1])
def test_limited_reads_match_copy_filter_slice(limit):
    """Both ring readers stop at ``limit`` matches walking newest
    first; what they return is, row for row and in order, what copy →
    filter → ``rows[-limit:]`` gave — but for ``limit=0``, which that
    slice turned into *everything* and now means none."""
    timeline, tracer = AuditTimeline(capacity=CAP), Tracer(capacity=CAP)
    for i in range(CAP + 9):                # both rings have wrapped
        pmo = i % 3
        timeline.record_attach(i % 2, pmo, f"pmo-{pmo}", i * 10)
        timeline.record_detach(i % 2, pmo, f"pmo-{pmo}", i * 10 + 5,
                               forced=i % 4 == 0)
        tracer.record_since(f"terpd.op{i % 3}", i)

    def last(rows):
        return rows[-limit:] if limit else []

    everything = timeline.events()
    assert len(everything) == CAP
    for filters in ({}, {"kind": FORCED_DETACH}, {"pmo": 2},
                    {"pmo": "pmo-1"}, {"pmo": 0, "kind": ATTACH},
                    {"kind": "sweep"}, {"pmo": "no-such-pmo"}):
        matching = [e for e in everything
                    if filters.get("kind") in (None, e["kind"])
                    and filters.get("pmo") in (None, e["pmo"],
                                               e["pmo_id"])]
        assert timeline.events(limit=limit, **filters) == last(matching)
    spans = tracer.recent()
    assert len(spans) == CAP
    assert tracer.recent(limit=limit) == last(spans)
    assert tracer.recent(limit=limit, name="terpd.op1") == \
        last([s for s in spans if s["name"] == "terpd.op1"])
    for read in (timeline.events, tracer.recent):
        with pytest.raises(ValueError):
            read(limit=-5)


class TestRecordShape:
    """The ring's storage is private; what ``events()`` hands out —
    keys, key order, values — is the wire contract of the ``trace``
    op and the invariant checker's input."""

    KEYS = ["seq", "kind", "at_ns", "entity", "pmo_id", "pmo",
            "duration_ns", "reason"]

    @staticmethod
    def one_of_each() -> AuditTimeline:
        timeline = AuditTimeline()
        timeline.record_attach(1, 7, "pmoA", 1_000, reason="performed")
        timeline.record_detach(1, 7, "pmoA", 4_000, reason="silent")
        timeline.record_attach(2, 7, "pmoA", 5_000)
        timeline.record_detach(2, 7, "pmoA", 9_000, forced=True,
                               reason="session EW budget elapsed")
        timeline.record_sweep(9_500, closed=1, duration_ns=50)
        timeline.record_fault("lib.storage_write", "transient", 9_600,
                              detail="rule 0 arrival 3")
        timeline.record_restart(10_000, downtime_ns=2_500_000,
                                sessions_restored=2)
        timeline.record_scrub(11_000, verified=8, repaired=1,
                              quarantined=0)
        timeline.record_quarantine(7, "pmoA", 12_000, reason="crc")
        return timeline

    def test_every_kind_reads_back_as_recorded(self):
        rows = [
            (1, "attach", 1_000, 1, 7, "pmoA", None, "performed"),
            (2, "detach", 4_000, 1, 7, "pmoA", 3_000, "silent"),
            (3, "attach", 5_000, 2, 7, "pmoA", None, ""),
            (4, "forced-detach", 9_000, 2, 7, "pmoA", 4_000,
             "session EW budget elapsed"),
            (5, "sweep", 9_500, None, None, None, 50,
             "closed 1 window(s)"),
            (6, "fault", 9_600, None, None, None, None,
             "lib.storage_write [transient] rule 0 arrival 3"),
            (7, "restart", 10_000, None, None, None, 2_500_000,
             "recovered 2 session(s) after 2.5ms down"),
            (8, "scrub", 11_000, None, None, None, None,
             "verified 8, repaired 1, quarantined 0"),
            (9, "quarantine", 12_000, None, 7, "pmoA", None, "crc"),
        ]
        events = self.one_of_each().events()
        assert events == [dict(zip(self.KEYS, row)) for row in rows]
        assert all(list(event) == self.KEYS for event in events)

    def test_filters_and_limit_select_the_same_records(self):
        timeline = self.one_of_each()
        events = timeline.events()
        assert timeline.events(pmo="pmoA") == \
            [e for e in events if e["pmo"] == "pmoA"]
        assert timeline.events(pmo=7, kind=ATTACH, limit=1) == \
            [events[2]]
        assert timeline.events(limit=3) == events[-3:]


class TestNoopMode:
    def test_disabled_timeline_records_nothing(self):
        timeline = AuditTimeline(enabled=False)
        timeline.record_attach(1, 7, "pmoA", 0)
        timeline.record_detach(1, 7, "pmoA", 100)
        timeline.record_sweep(200, closed=1)
        assert timeline.events() == []
        assert timeline.summary()["events"] == 0
        assert timeline.open_windows() == []
