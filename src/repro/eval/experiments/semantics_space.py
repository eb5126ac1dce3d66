"""The semantics design space (Section IV / Figure 3), quantified.

Runs canonical scenarios under all four semantics and scores each on
the axes the paper argues about:

* **nesting** (function composition) — what happens when a callee's
  attach/detach pair lands inside the caller's?  Basic errors out
  (the manual pair-matching burden); Outermost and FCFS absorb it
  silently; EW-conscious *forbids* within-thread overlap and relies
  on the compiler's insertion discipline (callees wrap their own
  accesses, call sites are never wrapped) to avoid it — measured here
  by running the two composition styles.
* **thread composability** — two well-formed threads overlapping
  windows: Basic errors (or blocks), the others proceed; FCFS's
  first-detach-wins cuts the second thread's window out from under it
  (counted as anomalies).
* **security** — the longest time the PMO stays mapped *at one
  location* under a nested-pair stream: unbounded for Outermost (the
  paper's rejection reason), bounded by the EW target only for
  EW-conscious (randomization augmentation).
* FCFS's **benign-reattach hole**: any access after the performed
  detach silently reopens the window — indistinguishable from an
  attacker's probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.permissions import Access
from repro.core.runtime import TerpRuntime
from repro.core.semantics import make_semantics, Outcome
from repro.core.theorem import schedule_of
from repro.core.units import MIB, ns_to_us, us

PMO = "pmo1"
SEMANTICS = ["basic", "outermost", "fcfs", "ew-conscious"]
EW = us(40)


@dataclass
class SemanticsScore:
    name: str
    nested_errors: int          # same-thread nested pairs
    sequential_errors: int      # compiler-style composition
    thread_errors: int
    thread_anomalies: int       # windows cut/kept-open wrongly
    max_location_window_us: float
    reattach_holes: int         # FCFS's benign-access reattach

    @property
    def thread_composable(self) -> bool:
        return self.thread_errors == 0

    @property
    def window_bounded(self) -> bool:
        return self.max_location_window_us <= ns_to_us(EW) + 5


def _count_errors(results) -> int:
    return sum(1 for r in results if r.outcome is Outcome.ERROR)


def _nested_composition(name: str) -> int:
    """A caller's pair wrapping a callee's pair (same thread)."""
    engine = make_semantics(name, ew_target_ns=EW)
    results = [
        engine.attach(1, PMO, Access.RW, us(1)),
        engine.attach(1, PMO, Access.RW, us(2)),   # callee's attach
        engine.access(1, PMO, Access.READ, us(3)),
        engine.detach(1, PMO, us(4)),              # callee's detach
        engine.detach(1, PMO, us(5)),
    ]
    return _count_errors(results)


def _sequential_composition(name: str) -> int:
    """Compiler-style composition: the callee wraps its own accesses,
    the caller never wraps the call site — no nesting arises."""
    engine = make_semantics(name, ew_target_ns=EW)
    results = []
    for i in range(5):
        base = us(10 * i)
        results.append(engine.attach(1, PMO, Access.RW, base))
        results.append(engine.access(1, PMO, Access.READ, base + 100))
        results.append(engine.detach(1, PMO, base + 200))
    return _count_errors(results)


def _threaded(name: str) -> tuple:
    """Two well-formed threads with overlapping windows; anomalies:
    thread 2's access denied inside its own window."""
    engine = make_semantics(name, ew_target_ns=EW)
    errors = anomalies = 0
    for round_ in range(20):
        base = us(10 * round_)
        for r in (engine.attach(1, PMO, Access.RW, base),
                  engine.attach(2, PMO, Access.RW, base + 100)):
            if r.outcome is Outcome.ERROR:
                errors += 1
        d1 = engine.detach(1, PMO, base + 200)
        if d1.outcome is Outcome.ERROR:
            errors += 1
        # Thread 2 is still inside its own window.
        a2 = engine.access(2, PMO, Access.READ, base + 300)
        if a2.outcome not in (Outcome.OK, Outcome.REATTACH):
            anomalies += 1
        d2 = engine.detach(2, PMO, base + 400)
        if d2.outcome is Outcome.ERROR:
            errors += 1
    return errors, anomalies


def _location_window(name: str) -> float:
    """Longest same-location mapped stretch under a nested-pair
    stream that keeps the PMO busy for 1ms: the run's Theorem 6
    schedule, read off the runtime's exposure monitor."""
    runtime = TerpRuntime(make_semantics(name, ew_target_ns=EW))
    pmo = runtime.manager.create(PMO, MIB)
    thread = 2 if name == "ew-conscious" else 1
    runtime.attach(1, pmo, Access.RW, 0)
    for i in range(1, 100):
        t = us(10 * i)
        runtime.attach(thread, pmo, Access.RW, t)
        runtime.detach(thread, pmo, t + us(1))
    end = us(1000)
    runtime.detach(1, pmo, end)
    runtime.finish(end)
    schedule = schedule_of(runtime.monitor, pmo.pmo_id)
    return ns_to_us(schedule.longest_stationary_accessible_ns())


def _reattach_holes(name: str) -> int:
    """Accesses after a performed detach that silently reattach."""
    engine = make_semantics(name, ew_target_ns=EW)
    holes = 0
    engine.attach(1, PMO, Access.RW, 0)
    engine.attach(1, PMO, Access.RW, us(1))
    engine.detach(1, PMO, us(2))
    for i in range(5):
        res = engine.access(1, PMO, Access.READ, us(3 + i))
        if res.outcome is Outcome.REATTACH:
            holes += 1
            engine.detach(1, PMO, us(3 + i) + 100)
    return holes


def run() -> List[SemanticsScore]:
    scores = []
    for name in SEMANTICS:
        thread_errors, anomalies = _threaded(name)
        scores.append(SemanticsScore(
            name=name,
            nested_errors=_nested_composition(name),
            sequential_errors=_sequential_composition(name),
            thread_errors=thread_errors,
            thread_anomalies=anomalies,
            max_location_window_us=_location_window(name),
            reattach_holes=_reattach_holes(name),
        ))
    return scores


def render(scores: List[SemanticsScore]) -> str:
    from repro.eval.tables import render_table
    rows = []
    for s in scores:
        window = f"{s.max_location_window_us:.0f}us"
        if not s.window_bounded:
            window += " (UNBOUNDED)"
        rows.append([
            s.name,
            f"{s.nested_errors} err",
            f"{s.sequential_errors} err",
            f"{s.thread_errors} err / {s.thread_anomalies} anomalies",
            window,
            s.reattach_holes,
        ])
    return render_table(
        ["semantics", "nested pairs", "compiler-style", "2 threads",
         "max location window", "reattach holes"],
        rows, title="Semantics design space (Section IV)")


if __name__ == "__main__":
    print(render(run()))
