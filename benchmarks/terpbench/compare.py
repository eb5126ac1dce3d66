"""``terpbench compare A B [...]``: do two sets of runs agree?

Each argument is a ``results.jsonl`` (or the ``--out`` directory holding
one); every run appended to it is one sample of that side.  The first
argument is the base; each other side gets one table with a row per
end-to-end metric × workload: both medians, how much worse the side is
as a share of the base median (the ``base`` column), the bound from
``BENCHMARK.json``, and a verdict —

* ``ok``          not worse than the base by more than the bound;
* ``regressed``   worse by more than the bound;
* ``unresolved``  the run-to-run spread (interquartile range ÷ median,
  the wider of the two sides) exceeds the bound, so the runs cannot
  tell — unless every run of the side beats every run of the base.

Per-layer metrics (every run's timings, and the rest from ``--trace 1``
runs) have no bound: they are listed with their change and spread and
no verdict.  Exits 1 if anything regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]

Samples = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Samples:
    """``(workload, metric) -> one value per run``."""
    source = Path(path)
    if source.is_dir():
        source = source / "results.jsonl"
    samples: Samples = defaultdict(list)
    for line in source.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        for name, metric in record["metrics"].items():
            samples[(record["workload"], name)].append(metric["value"])
        # An untraced run's timings: per-layer metrics by the spec.
        for name, value in record.get("timings", {}).items():
            if name not in record["metrics"]:
                samples[(record["workload"], name)].append(value)
    return samples


def spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    range with four or more runs, the full range below that."""
    mid = statistics.median(values)
    if len(values) < 2 or not mid:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(mid)
    return (max(values) - min(values)) / abs(mid)


def verdict(base: List[float], side: List[float], better: str,
            bound: float) -> Tuple[float, float, str]:
    """``(worse-by share of base median, spread, status)``."""
    mid_base, mid_side = statistics.median(base), statistics.median(side)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mid_side - mid_base) / abs(mid_base) if mid_base else 0.0
    wide = max(spread(base), spread(side))
    if wide > bound:
        all_better = max(side) < min(base) if better == "lower" \
            else min(side) > max(base)
        return worse, wide, "ok" if all_better else "unresolved"
    return worse, wide, "regressed" if worse > bound else "ok"


def table(base: Samples, side: Samples, spec: dict) -> Tuple[List[str], int]:
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    layered = {m["name"]: m for m in spec["per_layer"]}
    order = [w["name"] for w in spec["workloads"]]
    lines = [f"{'workload':<14} {'metric':<38} {'base':>12} {'side':>12} "
             f"{'worse by':>9} {'spread':>7} {'bound':>6} verdict"]
    regressed = 0
    keys = sorted(set(base) & set(side), key=lambda k: (
        order.index(k[0]) if k[0] in order else len(order),
        k[1] not in bounded, k[1]))
    for workload, name in keys:
        a, b = base[(workload, name)], side[(workload, name)]
        meta = bounded.get(name) or layered.get(name)
        if meta is None:
            continue
        bound: Optional[float] = meta.get("bound")
        worse, wide, status = verdict(a, b, meta["better"],
                                      bound if bound is not None else 1e9)
        if bound is None:
            status = "-"
        regressed += status == "regressed"
        lines.append(
            f"{workload:<14} {name:<38} {statistics.median(a):>12.5g} "
            f"{statistics.median(b):>12.5g} {worse:>+9.1%} {wide:>7.1%} "
            f"{(f'{bound:.0%}' if bound is not None else '-'):>6} "
            f"{status}  (n={len(a)}/{len(b)})")
    return lines, regressed


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/terpbench compare",
        description="Compare sets of terpbench runs against the bounds "
                    "in BENCHMARK.json.")
    parser.add_argument("base", help="results.jsonl (or its --out dir) "
                                     "of the base runs")
    parser.add_argument("sides", nargs="+",
                        help="one or more sides to hold against the base")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = load(args.base)
    total = 0
    for side_path in args.sides:
        print(f"# {side_path} against base {args.base}")
        lines, regressed = table(base, load(side_path), spec)
        print("\n".join(lines))
        total += regressed
    print(f"# {total} regressed")
    return 1 if total else 0

