"""Exposure timeline rendering from runtime traces."""

import random
import pytest

from repro.core.events import Trace
from repro.core.permissions import Access
from repro.core.runtime import TerpRuntime
from repro.core.semantics import EwConsciousSemantics
from repro.core.units import MIB, us
from repro.eval.timeline import ExposureTimeline
from repro.pmo.pool import PmoManager


def traced_run():
    trace = Trace()
    manager = PmoManager()
    rt = TerpRuntime(EwConsciousSemantics(us(40)), manager=manager,
                     trace=trace, rng=random.Random(1))
    pmo = manager.create("p", 8 * MIB)
    rt.attach(1, pmo, Access.RW, 0)
    rt.detach(1, pmo, us(10))          # lowered: stays mapped
    rt.attach(2, pmo, Access.RW, us(20))
    rt.detach(2, pmo, us(50))          # real detach (past target)
    rt.finish(us(100))
    return trace, pmo


class TestTimeline:
    def test_mapped_fraction_matches_windows(self):
        trace, pmo = traced_run()
        timeline = ExposureTimeline(trace, end_ns=us(100))
        # Mapped 0..50us out of 100us.
        assert timeline.mapped_fraction(pmo.pmo_id) == \
            pytest.approx(0.5, abs=0.02)

    def test_thread_permission_fractions(self):
        trace, pmo = traced_run()
        timeline = ExposureTimeline(trace, end_ns=us(100))
        # Thread 1 held 0..10us; thread 2 held 20..50us.
        assert timeline.permission_fraction(1, pmo.pmo_id) == \
            pytest.approx(0.10, abs=0.02)
        assert timeline.permission_fraction(2, pmo.pmo_id) == \
            pytest.approx(0.30, abs=0.02)

    def test_render_shows_lanes(self):
        trace, pmo = traced_run()
        text = ExposureTimeline(trace, end_ns=us(100)).render()
        assert "pmo" in text and "thread 1" in text
        assert "=" in text and "#" in text

    def test_randomization_marked(self):
        trace = Trace()
        manager = PmoManager()
        rt = TerpRuntime(EwConsciousSemantics(us(40)),
                         manager=manager, trace=trace,
                         rng=random.Random(2))
        pmo = manager.create("p", 8 * MIB)
        rt.attach(1, pmo, Access.RW, 0)
        rt.attach(2, pmo, Access.RW, us(1))
        rt.detach(1, pmo, us(41))      # randomize: t2 still holds
        rt.finish(us(80))
        timeline = ExposureTimeline(trace, end_ns=us(80))
        assert "R" in timeline.render()
        # The relocation splits the mapped interval but total mapped
        # time is unchanged (still mapped throughout).
        assert timeline.mapped_fraction(pmo.pmo_id) == \
            pytest.approx(1.0, abs=0.02)

    def test_empty_trace(self):
        timeline = ExposureTimeline(Trace())
        assert timeline.mapped_fraction("ghost") == 0.0
        assert "timeline" in timeline.render()

    def test_unknown_thread_fraction_zero(self):
        trace, pmo = traced_run()
        timeline = ExposureTimeline(trace, end_ns=us(100))
        assert timeline.permission_fraction(99, pmo.pmo_id) == 0.0
