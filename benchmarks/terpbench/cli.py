"""terpbench's command line.

``run`` (the default) measures workloads; ``compare`` reads the
``results.jsonl`` files two or more sets of runs left behind.  Following
the Clutch exemplar (SNIPPETS.md, Snippet 2) one run has separate views:
``--trace 0`` prints the end-to-end metrics and the timings, ``--trace
1`` the spans' self-time table and every per-layer metric (timings and
probes included).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional

from . import compare
from .runner import ROOT, Result, run_workload
from .workloads import WORKLOADS

SMOKE_SECONDS = 1.5      # five slices of ~0.26 s
SETUPS = 9               # set-ups per untraced run; setup_s is their best decile
SLICE_CV_WARN = 0.10


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _print_result(result: Result) -> None:
    """Human view first; the driver's JSON object is the last line."""
    print(f"== {result.workload}  seed={result.seed}  "
          f"seconds={result.seconds:g}  trace={result.trace}  "
          f"loop=closed clients=2")
    print(f"   why: {WORKLOADS[result.workload].why}")
    # An untraced run prints its timings below the bounded metrics; a
    # traced run has them among the per-layer metrics already.
    shown = dict(result.metrics)
    for name, metric in result.timings.items():
        shown.setdefault(name, metric)
    for name, (value, unit) in shown.items():
        count = result.samples.get(name)
        tail = f"  (n={count})" if count else ""
        print(f"   {name:<42} {value:>14.4f} {unit}{tail}")
    for name, (value, unit) in result.host.items():
        if name not in result.metrics:
            print(f"   {name:<42} {value:>14.4f} {unit}")
    cv = result.host.get("bench.slice_cv", (0.0, ""))[0]
    if cv > SLICE_CV_WARN:
        print(f"   WARNING: ops/s varied {cv:.1%} between slices "
              f"(> {SLICE_CV_WARN:.0%}); treat this run as noisy")
    if result.self_time:
        print("   self time by span name (largest first):")
        for name, count, total_ns in result.self_time:
            print(f"     {name:<40} n={count:<7} {total_ns / 1e6:>10.2f} ms")
    for violation in result.violations:
        print(f"   VIOLATION: {violation}")
    print(json.dumps(result.to_json()))


def _fill(result: Result, spec: dict) -> None:
    """Report exactly the metrics BENCHMARK.json names for this view:
    a per-layer metric that does not apply to the workload reads 0."""
    section = spec["per_layer" if result.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    unknown = set(result.metrics) - set(units)
    if unknown:
        raise SystemExit(f"terpbench: metrics missing from "
                         f"BENCHMARK.json: {sorted(unknown)}")
    result.metrics = {
        name: result.metrics.get(name, (0.0, unit))
        for name, unit in units.items()}


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    seconds = SMOKE_SECONDS if args.smoke else \
        float(args.seconds or spec["run_seconds"])
    names = args.workload or list(WORKLOADS)
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in names:
        result = run_workload(
            name, seed=args.seed, seconds=seconds, trace=args.trace,
            setups=1 if args.smoke or args.trace else SETUPS, out=out)
        _fill(result, spec)
        _print_result(result)
        sys.stdout.flush()
        if out is not None:
            with open(out / "results.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(result.to_record()) + "\n")
        ok = ok and result.correct
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/terpbench",
        description="terpbench: seeded end-to-end + per-layer benchmark "
                    "of real terpd processes (closed loop, 2 clients).")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives payloads, page order, holder jitter "
                             "and PMO names (default: %(default)s)")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS), metavar="NAME",
                        help="repeatable; default: all six "
                             f"({', '.join(WORKLOADS)})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per workload, in slices "
                             "of about half a second (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: spans, probes "
                             "and per-layer metrics")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="append results to DIR/results.jsonl and "
                             "write DIR/trace-<workload>.jsonl")
    parser.add_argument("--smoke", action="store_true",
                        help="five short slices, one set-up: a "
                             "functional pass, not a measurement")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Children and temp dirs are reaped in ``finally`` blocks; make
    # SIGTERM unwind through them like Ctrl-C does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    return cmd_run(build_parser().parse_args(argv))
