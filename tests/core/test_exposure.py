"""Exposure-window tracking (Definition 5, Table III metrics)."""

import pytest

from repro.core.errors import TerpError
from repro.core.exposure import ExposureMonitor, Window, WindowStats, WindowTracker
from repro.sim.stats import collect_exposure


class TestWindow:
    def test_length(self):
        assert Window(100, 350).length_ns == 250


class TestWindowStats:
    def test_empty(self):
        s = WindowStats.of([])
        assert s.count == 0 and s.total_ns == 0 and s.avg_ns == 0.0

    def test_aggregates(self):
        s = WindowStats.of([Window(0, 10), Window(20, 50)])
        assert s.count == 2
        assert s.total_ns == 40
        assert s.avg_ns == pytest.approx(20.0)
        assert s.max_ns == 30
        assert s.min_ns == 10


class TestWindowTracker:
    def test_open_close_records_window(self):
        t = WindowTracker()
        t.open("pmo", 100)
        w = t.close("pmo", 400)
        assert w == Window(100, 400)
        assert t.windows("pmo") == [Window(100, 400)]

    def test_double_open_rejected(self):
        t = WindowTracker()
        t.open("pmo", 0)
        with pytest.raises(TerpError):
            t.open("pmo", 10)

    def test_close_unopened_rejected(self):
        t = WindowTracker()
        with pytest.raises(TerpError):
            t.close("pmo", 10)

    def test_close_before_open_rejected(self):
        t = WindowTracker()
        t.open("pmo", 100)
        with pytest.raises(TerpError):
            t.close("pmo", 50)

    def test_finish_closes_all(self):
        t = WindowTracker()
        t.open("a", 0)
        t.open("b", 10)
        t.finish(100)
        assert not t.is_open("a") and not t.is_open("b")
        assert t.stats().count == 2

    def test_exposure_rate(self):
        t = WindowTracker()
        t.open("pmo", 0)
        t.close("pmo", 250)
        assert t.exposure_rate(1000) == pytest.approx(0.25)

    def test_exposure_rate_zero_total(self):
        assert WindowTracker().exposure_rate(0) == 0.0

    def test_windows_across_keys(self):
        t = WindowTracker()
        t.open("a", 0)
        t.close("a", 10)
        t.open("b", 5)
        t.close("b", 25)
        assert len(t.windows()) == 2
        assert t.stats().total_ns == 30


class TestExposureMonitor:
    def test_ew_and_tew_report(self):
        mon = ExposureMonitor()
        mon.pmo_mapped("pmo1", 0)
        mon.thread_granted(1, "pmo1", 0)
        mon.thread_revoked(1, "pmo1", 2_000)      # 2us TEW
        mon.thread_granted(2, "pmo1", 10_000)
        mon.thread_revoked(2, "pmo1", 12_000)     # 2us TEW
        mon.pmo_unmapped("pmo1", 40_000)          # 40us EW
        [report] = collect_exposure(mon, 100_000, num_threads=2)
        assert report.ew_avg_us == pytest.approx(40.0)
        assert report.ew_max_us == pytest.approx(40.0)
        assert report.er_percent == pytest.approx(40.0)
        assert report.tew_avg_us == pytest.approx(2.0)
        # 4us of thread windows over 2 threads x 100us.
        assert report.ter_percent == pytest.approx(2.0)

    def test_ter_below_er_when_grants_are_short(self):
        # The core TERP claim: thread windows are much smaller than
        # the process window that contains them.
        mon = ExposureMonitor()
        mon.pmo_mapped("p", 0)
        for i in range(5):
            mon.thread_granted(1, "p", i * 8_000)
            mon.thread_revoked(1, "p", i * 8_000 + 1_000)
        mon.pmo_unmapped("p", 40_000)
        [report] = collect_exposure(mon, 40_000, num_threads=1)
        assert report.ter_percent < report.er_percent

    def test_finish_closes_both_levels(self):
        mon = ExposureMonitor()
        mon.pmo_mapped("p", 0)
        mon.thread_granted(7, "p", 10)
        mon.finish(1_000)
        assert mon.ew.stats().count == 1
        assert mon.tew.stats().count == 1

    def test_relocation_splits_an_open_window(self):
        mon = ExposureMonitor()
        mon.pmo_mapped("p", 0)
        mon.pmo_relocated("p", 30)
        mon.pmo_unmapped("p", 50)
        assert [(w.start_ns, w.end_ns) for w in mon.ew.windows("p")] == \
            [(0, 30), (30, 50)]
        assert mon.relocations("p") == [30]
        assert mon.relocations("other") == []

    def test_relocation_instants_follow_keep_closed(self):
        mon = ExposureMonitor(keep_closed=False)
        mon.pmo_mapped("p", 0)
        mon.pmo_relocated("p", 30)
        assert mon.ew.is_open("p")
        assert mon.relocations("p") == []
        assert mon.ew.windows() == []
