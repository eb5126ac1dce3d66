"""The temporal protection theorem (Theorem 6), executable.

    "If a memory attack requires a memory region to be stationary
    (location unchanged) and accessible for at least t time to
    succeed, the attack can be prevented as long as the exposure
    window of the memory region is smaller than t, and locations of
    the region changed before t elapses."

This module makes the theorem checkable against concrete exposure
schedules: a :class:`Schedule` lists the region's accessibility
windows and relocation instants (:func:`schedule_of` reads one off a
run's :class:`~repro.core.exposure.ExposureMonitor`);
:func:`attack_can_succeed` decides whether any
stationary-and-accessible stretch of length ``t`` exists;
:func:`theorem_holds` verifies the theorem's statement itself over a
schedule (used by the property tests, which search for
counterexamples with hypothesis).
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

from repro.core.errors import TerpError
from repro.core.exposure import ExposureMonitor, Window
from repro.core.record import record


@record(frozen=True)
class Schedule:
    """A region's temporal protection history.

    ``windows`` — intervals during which the region is accessible to
    the attacker's permission group; ``relocations`` — instants at
    which the region's location changed (randomization).
    """

    windows: Tuple[Window, ...]
    relocations: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        last_end = -1
        for w in self.windows:
            if w.length_ns < 0:
                raise TerpError("window with negative length")
            if w.start_ns < last_end:
                raise TerpError("windows must be sorted and disjoint")
            last_end = w.end_ns

    @classmethod
    def of(cls, windows: Sequence[Tuple[int, int]],
           relocations: Sequence[int] = ()) -> "Schedule":
        return cls(tuple(Window(a, b) for a, b in windows),
                   tuple(sorted(relocations)))

    def max_exposure_ns(self) -> int:
        """The longest single accessibility window."""
        return max((w.length_ns for w in self.windows), default=0)

    def stationary_accessible_stretches(self) -> List[Window]:
        """Maximal intervals that are accessible AND stationary.

        Each accessibility window is cut at every relocation instant
        inside it — after a relocation, knowledge of the old location
        is useless, so the attack's clock restarts.
        """
        stretches: List[Window] = []
        for w in self.windows:
            cuts = [t for t in self.relocations
                    if w.start_ns < t < w.end_ns]
            start = w.start_ns
            for cut in cuts:
                stretches.append(Window(start, cut))
                start = cut
            stretches.append(Window(start, w.end_ns))
        return stretches

    def longest_stationary_accessible_ns(self) -> int:
        return max((s.length_ns
                    for s in self.stationary_accessible_stretches()),
                   default=0)


def schedule_of(monitor: ExposureMonitor, pmo_id: Hashable) -> Schedule:
    """A PMO's :class:`Schedule` as a run recorded it: the monitor's
    closed exposure windows and relocation instants (finish the run
    first, so no window is left open)."""
    return Schedule(tuple(monitor.ew.windows(pmo_id)),
                    tuple(monitor.relocations(pmo_id)))


def attack_can_succeed(schedule: Schedule, attack_time_ns: int) -> bool:
    """Does any stationary+accessible stretch of length >= t exist?"""
    if attack_time_ns <= 0:
        raise TerpError("attack time must be positive")
    return schedule.longest_stationary_accessible_ns() >= attack_time_ns


def theorem_holds(schedule: Schedule, attack_time_ns: int) -> bool:
    """Check Theorem 6's implication on a concrete schedule.

    Premise: every exposure window is smaller than t AND the location
    changes before t elapses within any window.  Conclusion: the
    attack cannot succeed.  Returns True when the implication holds
    (including vacuously, when the premise fails).
    """
    premise = (schedule.max_exposure_ns() < attack_time_ns
               or schedule.longest_stationary_accessible_ns()
               < attack_time_ns)
    if not premise:
        return True  # the theorem says nothing about this schedule
    return not attack_can_succeed(schedule, attack_time_ns)


def terp_schedule(*, ew_ns: int, period_ns: int, horizon_ns: int,
                  randomize_at_window_end: bool = True) -> Schedule:
    """A periodic TERP-style schedule: one EW per period, optionally
    re-randomized at each window boundary."""
    if ew_ns > period_ns:
        raise TerpError("window longer than its period")
    windows = []
    relocations = []
    start = 0
    while start < horizon_ns:
        end = min(start + ew_ns, horizon_ns)
        windows.append((start, end))
        if randomize_at_window_end:
            relocations.append(end)
        start += period_ns
    return Schedule.of(windows, relocations)
