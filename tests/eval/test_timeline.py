"""Exposure timeline rendering from the runtime's exposure monitor."""

import random
import pytest

from repro.arch.cond_engine import TerpArchEngine
from repro.core.exposure import ExposureMonitor
from repro.core.permissions import Access
from repro.core.runtime import TerpRuntime
from repro.core.semantics import EwConsciousSemantics
from repro.core.units import MIB, us
from repro.eval.timeline import ExposureTimeline
from repro.pmo.pool import PmoManager


def two_thread_run():
    manager = PmoManager()
    rt = TerpRuntime(EwConsciousSemantics(us(40)), manager=manager,
                     rng=random.Random(1))
    pmo = manager.create("p", 8 * MIB)
    rt.attach(1, pmo, Access.RW, 0)
    rt.detach(1, pmo, us(10))          # lowered: stays mapped
    rt.attach(2, pmo, Access.RW, us(20))
    rt.detach(2, pmo, us(50))          # real detach (past target)
    rt.finish(us(100))
    return rt.monitor, pmo


def relocation_run():
    manager = PmoManager()
    rt = TerpRuntime(EwConsciousSemantics(us(40)), manager=manager,
                     rng=random.Random(2))
    pmo = manager.create("p", 8 * MIB)
    rt.attach(1, pmo, Access.RW, 0)
    rt.attach(2, pmo, Access.RW, us(1))
    rt.detach(1, pmo, us(41))      # randomize: t2 still holds
    rt.finish(us(80))
    return rt.monitor, us(80)


def example_run():
    """examples/exposure_timeline.py's session: three threads in
    turns under the arch engine, swept between rounds."""
    manager = PmoManager()
    rt = TerpRuntime(TerpArchEngine(us(40)), manager=manager,
                     rng=random.Random(3))
    pmo = manager.create("shared", 8 * MIB)
    t = 0
    for _ in range(6):
        for thread in (1, 2, 3):
            rt.attach(thread, pmo, Access.RW, t)
            t += us(2)
            rt.detach(thread, pmo, t)
            t += us(3)
        rt.sweep(t)
        t += us(5)
    rt.finish(t)
    return rt.monitor, t


#: Each scenario's picture as the event-trace timeline drew it before
#: the timeline read the monitor.
RENDERED = {
    "example": (
        "timeline 0 .. 120.0us (= mapped, # thread permission, "
        "R relocation)\n"
        "  pmo 1            |========================="
        "  =========================  ================= |\n"
        "    thread 1       |#           #           #           #"
        "           #           #           |\n"
        "    thread 2       |   #           #           #           #"
        "           #           #        |\n"
        "    thread 3       |      #           #           #           #"
        "           #           #     |"),
    "relocation": (
        "timeline 0 .. 80.0us (= mapped, # thread permission, "
        "R relocation)\n"
        "  pmo 1            |===================================="
        "R================================== |\n"
        "    thread 1       |####################################"
        "                                    |\n"
        "    thread 2       |####################################"
        "################################### |"),
}


class TestTimeline:
    def test_mapped_fraction_matches_windows(self):
        monitor, pmo = two_thread_run()
        timeline = ExposureTimeline(monitor, end_ns=us(100))
        # Mapped 0..50us out of 100us.
        assert timeline.mapped_fraction(pmo.pmo_id) == \
            pytest.approx(0.5, abs=0.02)

    def test_thread_permission_fractions(self):
        monitor, pmo = two_thread_run()
        timeline = ExposureTimeline(monitor, end_ns=us(100))
        # Thread 1 held 0..10us; thread 2 held 20..50us.
        assert timeline.permission_fraction(1, pmo.pmo_id) == \
            pytest.approx(0.10, abs=0.02)
        assert timeline.permission_fraction(2, pmo.pmo_id) == \
            pytest.approx(0.30, abs=0.02)

    def test_render_shows_lanes(self):
        monitor, pmo = two_thread_run()
        text = ExposureTimeline(monitor, end_ns=us(100)).render()
        assert "pmo" in text and "thread 1" in text
        assert "=" in text and "#" in text

    def test_randomization_marked(self):
        monitor, end_ns = relocation_run()
        timeline = ExposureTimeline(monitor, end_ns=end_ns)
        assert "R" in timeline.render()
        # The relocation splits the mapped interval but total mapped
        # time is unchanged (still mapped throughout).
        [pmo_id] = monitor.ew.keys()
        assert timeline.mapped_fraction(pmo_id) == \
            pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("scenario, run", [
        ("example", example_run), ("relocation", relocation_run)])
    def test_render_is_unchanged(self, scenario, run):
        monitor, end_ns = run()
        assert ExposureTimeline(monitor, end_ns=end_ns).render() == \
            RENDERED[scenario]

    def test_end_defaults_to_the_last_window_end(self):
        monitor, _ = two_thread_run()
        # The real detach at 50us closes the last window.
        assert ExposureTimeline(monitor).end_ns == us(50)

    def test_empty_trace(self):
        timeline = ExposureTimeline(ExposureMonitor())
        assert timeline.mapped_fraction("ghost") == 0.0
        assert "timeline" in timeline.render()

    def test_unknown_thread_fraction_zero(self):
        monitor, pmo = two_thread_run()
        timeline = ExposureTimeline(monitor, end_ns=us(100))
        assert timeline.permission_fraction(99, pmo.pmo_id) == 0.0
