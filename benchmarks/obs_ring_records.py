"""What one record costs the observability rings, and one read.

Five paths: ``record_attach`` + ``record_detach`` (ns per pair),
``record_sweep`` and ``record_since`` (ns per call), ``events(limit=
16384, kind="forced-detach")`` on a full 65 536-event timeline with
every eighth detach forced (µs), and ``recent()`` on a full 4 096-span
ring (µs).  One tree is timed in a fresh interpreter per run.  With
``--against OTHER_SRC`` both trees' ``repro.obs.audit`` and
``repro.obs.tracing`` are imported into this one interpreter, side by
side, and take turns run by run and, on each path, timing by timing;
each tree's medians are printed, and the median of the runs' ratios.
(Timed in separate interpreters, a tree against a copy of itself
drifted 0.85–1.17 run to run: more than the gaps it measures.)

Run::

    python benchmarks/obs_ring_records.py                 # src/, once
    python benchmarks/obs_ring_records.py --runs 10 \\
        --against /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

PATHS = ("attach_detach_ns", "sweep_ns", "record_since_ns",
         "events_forced_us", "recent_us")

HERE = os.path.dirname(os.path.abspath(__file__))

#: One run in a fresh interpreter, on the tree ``PYTHONPATH`` names.
PROBE = f"""
import json, sys
sys.path.insert(1, {HERE!r})
from obs_ring_records import measure
from repro.obs.audit import AuditTimeline
from repro.obs.tracing import Tracer
print(json.dumps(measure([(AuditTimeline, Tracer)])[0]))
"""


def per_call(fns: List[Callable[[int], Any]], calls: int,
             reps: int = 5) -> List[float]:
    """Each of ``fns``' time per call, the median of ``reps`` timings;
    the ``fns`` take turns rep by rep."""
    times: List[List[float]] = [[] for _ in fns]
    for rep in range(reps):
        for i in range(len(fns))[::1 if rep % 2 == 0 else -1]:
            start = time.perf_counter_ns()
            fns[i](calls)
            times[i].append((time.perf_counter_ns() - start) / calls)
    return [sorted(each)[reps // 2] for each in times]


def probes(AuditTimeline: Any, Tracer: Any) -> Dict[str, Callable]:
    """The five paths, each ``f(calls)``, on one tree's ring classes."""
    timeline, tracer = AuditTimeline(), Tracer()

    def attach_detach(calls: int) -> None:
        for i in range(calls):
            timeline.record_attach(1001, 7, "tenant", i, reason="performed")
            timeline.record_detach(1001, 7, "tenant", i + 50,
                                   reason="performed")

    def sweep(calls: int) -> None:
        for i in range(calls):
            timeline.record_sweep(i, closed=1, duration_ns=12_345)

    def since(calls: int) -> None:
        for i in range(calls):
            tracer.record_since("terpd.attach", i, ok=True)

    full = AuditTimeline()
    for i in range(full.capacity // 2):
        full.record_attach(1001, 7, "tenant", i)
        full.record_detach(1001, 7, "tenant", i + 1, forced=i % 8 == 0)

    return {"attach_detach_ns": attach_detach, "sweep_ns": sweep,
            "record_since_ns": since,
            "events_forced_us": lambda n: [
                full.events(limit=16384, kind="forced-detach")
                for _ in range(n)],
            "recent_us": lambda n: [tracer.recent() for _ in range(n)]}


#: Calls per timing, and the unit each path reports in (ns / 1000).
CALLS = {"attach_detach_ns": (20_000, 1), "sweep_ns": (20_000, 1),
         "record_since_ns": (20_000, 1), "events_forced_us": (3, 1e3),
         "recent_us": (10, 1e3)}


def measure(trees: List[Tuple[Any, Any]]) -> List[Dict[str, float]]:
    """The five paths on each tree's ``(AuditTimeline, Tracer)``, the
    trees taking turns on each."""
    each = [probes(*tree) for tree in trees]
    out: List[Dict[str, float]] = [{} for _ in trees]
    for path in PATHS:
        calls, unit = CALLS[path]
        for got, ns in zip(out, per_call([fns[path] for fns in each],
                                         calls)):
            got[path] = ns / unit
    return out


def run_once(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def load_tree(src: str) -> Tuple[Any, Any]:
    """``src``'s ``AuditTimeline`` and ``Tracer``, imported into this
    interpreter beside any other tree's: ``sys.path`` and the
    ``repro`` modules are swapped for the import and put back, and the
    classes keep their own modules alive."""
    def ours() -> Dict[str, Any]:
        return {name: module for name, module in sys.modules.items()
                if name == "repro" or name.startswith("repro.")}

    saved_path, saved = sys.path[:], ours()
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return (importlib.import_module("repro.obs.audit").AuditTimeline,
                importlib.import_module("repro.obs.tracing").Tracer)
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)
        sys.path[:] = saved_path


def main() -> None:
    here = os.path.join(os.path.dirname(HERE), "src")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=here,
                        help="source tree to measure (default: src/)")
    parser.add_argument("--against", help="a second tree, run in turn")
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args()
    trees = {"this": args.src}
    if args.against:
        trees["other"] = args.against
        # Both trees in this interpreter: one heap, one warm-up.
        loaded = {name: load_tree(src) for name, src in trees.items()}
    runs = {name: [] for name in trees}
    for run in range(args.runs):
        # Alternate which tree goes first, so neither always runs on a
        # machine the other just warmed or loaded.
        order = list(trees) if run % 2 == 0 else list(trees)[::-1]
        if args.against:
            gc.collect()           # every run from the same heap
            for name, got in zip(order, measure(
                    [loaded[name] for name in order])):
                runs[name].append(got)
        else:
            for name in order:
                runs[name].append(run_once(trees[name]))
    report = {name: {path: round(statistics.median(r[path] for r in rs), 1)
                     for path in PATHS} for name, rs in runs.items()}
    if args.against:
        # Each run's two trees were timed side by side: the median of
        # those paired ratios, not a ratio of medians.
        report["this/other"] = {
            path: round(statistics.median(
                this[path] / other[path]
                for this, other in zip(runs["this"], runs["other"])), 2)
            for path in PATHS}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
