"""ASCII exposure timelines from a run's exposure monitor.

Turns a finished run's :class:`~repro.core.exposure.ExposureMonitor`
into the picture the paper's Figure 4 draws: per-PMO rows showing when
the object was mapped (``=``), relocated (``R``), and per-thread rows
showing when each thread held permission (``#``).  Used by examples and
debugging; the rendering is pure text so it works everywhere the tests
run.
"""

from __future__ import annotations

from typing import Hashable, List, Optional

from repro.core.exposure import ExposureMonitor, Window
from repro.core.units import ns_to_us


class ExposureTimeline:
    """Renders the monitor's closed windows and relocation instants
    into columns (call the runtime's ``finish`` first, so no window is
    left open)."""

    def __init__(self, monitor: ExposureMonitor, *,
                 end_ns: Optional[int] = None, width: int = 72) -> None:
        self.monitor = monitor
        self.width = width
        self.end_ns = end_ns if end_ns is not None else max(
            (w.end_ns for w in monitor.ew.windows() + monitor.tew.windows()),
            default=0)

    # -- rendering -----------------------------------------------------------

    def _column(self, t: int) -> int:
        if self.end_ns == 0:
            return 0
        col = int(t * self.width / self.end_ns)
        return min(col, self.width - 1)

    def _lane_chars(self, windows: List[Window], marks: List[int],
                    fill: str) -> str:
        chars = [" "] * self.width
        for w in windows:
            lo, hi = self._column(w.start_ns), self._column(w.end_ns)
            for c in range(lo, max(hi, lo + 1)):
                chars[c] = fill
        for mark in marks:
            chars[self._column(mark)] = "R"
        return "".join(chars)

    def render(self) -> str:
        mon = self.monitor
        lines = [f"timeline 0 .. {ns_to_us(self.end_ns):.1f}us "
                 f"(= mapped, # thread permission, R relocation)"]
        for pmo_id in mon.ew.keys():
            lane = self._lane_chars(mon.ew.windows(pmo_id),
                                    mon.relocations(pmo_id), "=")
            lines.append(f"  pmo {str(pmo_id):12s} |{lane}|")
            threads = sorted(key for key in mon.tew.keys()
                             if key[1] == pmo_id)
            for key in threads:
                lane = self._lane_chars(mon.tew.windows(key), [], "#")
                lines.append(f"    thread {key[0]:<7d} |{lane}|")
        return "\n".join(lines)

    # -- stats (handy for tests) ------------------------------------------------

    def _fraction(self, windows: List[Window]) -> float:
        if self.end_ns == 0:
            return 0.0
        return sum(w.length_ns for w in windows) / self.end_ns

    def mapped_fraction(self, pmo_id: Hashable) -> float:
        return self._fraction(self.monitor.ew.windows(pmo_id))

    def permission_fraction(self, thread_id: int,
                            pmo_id: Hashable) -> float:
        return self._fraction(self.monitor.tew.windows((thread_id, pmo_id)))
