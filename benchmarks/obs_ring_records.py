"""What one record costs the observability rings, and one read.

Five paths, each timed in a fresh interpreter against one source tree:
``record_attach`` + ``record_detach`` (ns per pair), ``record_sweep``
and ``record_since`` (ns per call), ``events(limit=16384,
kind="forced-detach")`` on a full 65 536-event timeline with every
eighth detach forced (µs), and ``recent()`` on a full 4 096-span ring
(µs).  With ``--against OTHER_SRC`` the two trees take turns, run by
run, and the medians and their ratio are printed.

Run::

    python benchmarks/obs_ring_records.py                 # src/, once
    python benchmarks/obs_ring_records.py --runs 10 \\
        --against /path/to/other/checkout/src
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

PATHS = ("attach_detach_ns", "sweep_ns", "record_since_ns",
         "events_forced_us", "recent_us")

PROBE = r"""
import json, time
from repro.obs.audit import AuditTimeline
from repro.obs.tracing import Tracer

def per_call(fn, calls, reps=5):
    best = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        fn(calls)
        best.append((time.perf_counter_ns() - start) / calls)
    return sorted(best)[reps // 2]

timeline, tracer = AuditTimeline(), Tracer()

def attach_detach(calls):
    for i in range(calls):
        timeline.record_attach(1001, 7, "tenant", i, reason="performed")
        timeline.record_detach(1001, 7, "tenant", i + 50,
                               reason="performed")

def sweep(calls):
    for i in range(calls):
        timeline.record_sweep(i, closed=1, duration_ns=12_345)

def since(calls):
    for i in range(calls):
        tracer.record_since("terpd.attach", i, ok=True)

full = AuditTimeline()
for i in range(full.capacity // 2):
    full.record_attach(1001, 7, "tenant", i)
    full.record_detach(1001, 7, "tenant", i + 1, forced=i % 8 == 0)

out = {"attach_detach_ns": per_call(attach_detach, 20_000),
       "sweep_ns": per_call(sweep, 20_000),
       "record_since_ns": per_call(since, 20_000),
       "events_forced_us": per_call(
           lambda n: [full.events(limit=16384, kind="forced-detach")
                      for _ in range(n)], 3) / 1e3,
       "recent_us": per_call(
           lambda n: [tracer.recent() for _ in range(n)], 10) / 1e3}
print(json.dumps(out))
"""


def run_once(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> None:
    here = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=here,
                        help="source tree to measure (default: src/)")
    parser.add_argument("--against", help="a second tree, run in turn")
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args()
    trees = {"this": args.src}
    if args.against:
        trees["other"] = args.against
    runs = {name: [] for name in trees}
    for run in range(args.runs):
        # Alternate which tree goes first, so neither always runs on a
        # machine the other just warmed or loaded.
        order = list(trees) if run % 2 == 0 else list(trees)[::-1]
        for name in order:
            runs[name].append(run_once(trees[name]))
    report = {name: {path: round(statistics.median(r[path] for r in rs), 1)
                     for path in PATHS} for name, rs in runs.items()}
    if args.against:
        report["this/other"] = {
            path: round(report["this"][path] / report["other"][path], 2)
            for path in PATHS}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
