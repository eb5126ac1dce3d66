"""Exposure-window accounting (Definition 5 and the Table III metrics).

Two granularities are tracked, mirroring the paper's EW/TEW split:

* **Exposure window (EW)** — a contiguous interval during which a PMO
  is mapped in the process address space (accessible by *any* thread
  of the process).
* **Thread exposure window (TEW)** — a contiguous interval during
  which one specific thread holds access permission to the PMO.

From the recorded intervals we derive the reported metrics:

* ``avg``/``max`` window size,
* **ER** (exposure rate) = total exposed time / total execution time,
* **TER** likewise over thread windows.

The tracker is purely observational: the semantics engine and runtime
call :meth:`open`/:meth:`close`; nothing here affects protection
decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.errors import TerpError


@dataclass(frozen=True)
class Window:
    """One closed exposure interval ``[start_ns, end_ns)``."""

    start_ns: int
    end_ns: int

    @property
    def length_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class WindowStats:
    """Summary statistics over a set of windows."""

    count: int
    total_ns: int
    avg_ns: float
    max_ns: int
    min_ns: int

    @classmethod
    def of(cls, windows: List[Window]) -> "WindowStats":
        if not windows:
            return cls(count=0, total_ns=0, avg_ns=0.0, max_ns=0, min_ns=0)
        lengths = [w.length_ns for w in windows]
        total = sum(lengths)
        return cls(count=len(lengths), total_ns=total,
                   avg_ns=total / len(lengths),
                   max_ns=max(lengths), min_ns=min(lengths))


class WindowTracker:
    """Records open/close events for windows keyed by an arbitrary key.

    For EWs the key is the PMO id; for TEWs it is ``(thread_id, pmo_id)``.

    ``keep_closed=False`` is for a process that runs indefinitely and
    never reads :meth:`windows` (the terpd daemon): :meth:`close` still
    returns the window, but only open windows are held.
    """

    def __init__(self, *, keep_closed: bool = True) -> None:
        self._open: Dict[Hashable, int] = {}
        self._closed: Dict[Hashable, List[Window]] = {}
        self._keep_closed = keep_closed

    def open(self, key: Hashable, now_ns: int) -> None:
        """Begin a window; opening an already-open window is an error
        (it would mean the semantics engine lost track of state)."""
        if key in self._open:
            raise TerpError(f"window for {key!r} already open")
        self._open[key] = now_ns

    def close(self, key: Hashable, now_ns: int) -> Window:
        """End the open window for ``key`` and return it."""
        try:
            start = self._open.pop(key)
        except KeyError:
            raise TerpError(f"no open window for {key!r}") from None
        if now_ns < start:
            raise TerpError(
                f"window for {key!r} closes at {now_ns} before open {start}")
        window = Window(start, now_ns)
        if self._keep_closed:
            self._closed.setdefault(key, []).append(window)
        return window

    def is_open(self, key: Hashable) -> bool:
        return key in self._open

    def shift_open(self, key: Hashable, new_start_ns: int) -> None:
        """Move an open window's start forward (e.g. to exclude the
        syscall processing time from the usable exposure window)."""
        start = self._open.get(key)
        if start is None:
            raise TerpError(f"no open window for {key!r}")
        if new_start_ns < start:
            raise TerpError("cannot shift a window start backwards")
        self._open[key] = new_start_ns

    def open_since(self, key: Hashable) -> Optional[int]:
        return self._open.get(key)

    def current_length(self, key: Hashable, now_ns: int) -> int:
        """Length of the currently open window, 0 if closed."""
        start = self._open.get(key)
        return 0 if start is None else now_ns - start

    def finish(self, now_ns: int) -> None:
        """Close every still-open window at end of run."""
        for key in list(self._open):
            self.close(key, now_ns)

    def windows(self, key: Hashable = None) -> List[Window]:
        """Closed windows for ``key``, or all windows when key is None."""
        if key is not None:
            return list(self._closed.get(key, []))
        out: List[Window] = []
        for wins in self._closed.values():
            out.extend(wins)
        return out

    def keys(self) -> List[Hashable]:
        seen = set(self._closed) | set(self._open)
        return sorted(seen, key=repr)

    def stats(self, key: Hashable = None) -> WindowStats:
        return WindowStats.of(self.windows(key))

    def exposure_rate(self, total_ns: int, key: Hashable = None) -> float:
        """Total exposed time / total time (the paper's ER / TER)."""
        if total_ns <= 0:
            return 0.0
        return self.stats(key).total_ns / total_ns


@dataclass
class ExposureReport:
    """The per-workload row shape of Tables III and IV."""

    ew_avg_us: float
    ew_max_us: float
    er_percent: float
    tew_avg_us: float = 0.0
    ter_percent: float = 0.0
    silent_percent: float = 0.0
    cond_per_second: float = 0.0


class ExposureMonitor:
    """Aggregates EW and TEW trackers for one simulated run."""

    def __init__(self, *, keep_closed: bool = True) -> None:
        self.ew = WindowTracker(keep_closed=keep_closed)
        self.tew = WindowTracker(keep_closed=keep_closed)

    # EW: keyed by pmo_id -------------------------------------------------
    def pmo_mapped(self, pmo_id: Hashable, now_ns: int) -> None:
        self.ew.open(pmo_id, now_ns)

    def pmo_unmapped(self, pmo_id: Hashable, now_ns: int) -> Window:
        return self.ew.close(pmo_id, now_ns)

    # TEW: keyed by (thread_id, pmo_id) ------------------------------------
    def thread_granted(self, thread_id: int, pmo_id: Hashable,
                       now_ns: int) -> None:
        self.tew.open((thread_id, pmo_id), now_ns)

    def thread_revoked(self, thread_id: int, pmo_id: Hashable,
                       now_ns: int) -> Window:
        return self.tew.close((thread_id, pmo_id), now_ns)

    def finish(self, now_ns: int) -> None:
        self.ew.finish(now_ns)
        self.tew.finish(now_ns)

    def report(self, total_ns: int, *, silent_percent: float = 0.0,
               cond_per_second: float = 0.0) -> ExposureReport:
        """Produce the Table III/IV row for this run."""
        from repro.core.units import ns_to_us
        ew_stats = self.ew.stats()
        tew_stats = self.tew.stats()
        return ExposureReport(
            ew_avg_us=ns_to_us(ew_stats.avg_ns),
            ew_max_us=ns_to_us(ew_stats.max_ns),
            er_percent=100.0 * self.ew.exposure_rate(total_ns),
            tew_avg_us=ns_to_us(tew_stats.avg_ns),
            ter_percent=100.0 * self.tew.exposure_rate(total_ns),
            silent_percent=silent_percent,
            cond_per_second=cond_per_second,
        )
