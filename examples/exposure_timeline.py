#!/usr/bin/env python3
"""Visualize exposure windows as an ASCII timeline.

Replays a short three-thread session against the TERP architecture
engine, then renders the runtime's exposure monitor as the Figure
4-style picture: when the PMO was mapped (and relocated), and when each
thread held permission.  The contrast between the long mapped bar and
the short per-thread bars *is* TERP's contribution.
"""

import random

from repro import Access, TerpArchEngine
from repro.core.runtime import TerpRuntime
from repro.core.units import MIB, us
from repro.eval.timeline import ExposureTimeline
from repro.pmo.pool import PmoManager


def main() -> None:
    manager = PmoManager()
    rt = TerpRuntime(TerpArchEngine(us(40)), manager=manager,
                     rng=random.Random(3))
    pmo = manager.create("shared", 8 * MIB)

    # Three threads take turns in short windows; the hardware combines
    # them, and a sweep after the 40us target unmaps the PMO.  No
    # thread holds it at a sweep, so it is never relocated (a held PMO
    # would be, drawn as R).
    t = 0
    for round_ in range(6):
        for thread in (1, 2, 3):
            rt.attach(thread, pmo, Access.RW, t)
            t += us(2)
            rt.detach(thread, pmo, t)
            t += us(3)
        # Hardware sweep between rounds.
        rt.sweep(t)
        t += us(5)
    rt.finish(t)

    timeline = ExposureTimeline(rt.monitor, end_ns=t)
    print(timeline.render())
    print()
    print(f"PMO mapped {100 * timeline.mapped_fraction(pmo.pmo_id):.0f}% "
          "of the run; per-thread permission:")
    for thread in (1, 2, 3):
        frac = timeline.permission_fraction(thread, pmo.pmo_id)
        print(f"  thread {thread}: {100 * frac:.0f}%")
    print(f"\nsilent call rate: {rt.counters.silent_percent:.0f}%  "
          f"randomizations: {rt.counters.randomizations}")


if __name__ == "__main__":
    main()
