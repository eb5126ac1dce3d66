"""Experiment runner: workloads x configurations -> results.

The single entry point the experiments and benchmarks use:
:func:`run` runs one benchmark of one suite under one configuration,
:func:`run_suite` a suite's benchmarks.  A suite is a row of
:data:`SUITES` over a table of benchmark rows, so no caller branches
on which suite it runs.

Scaling: the paper runs 100K WHISPER transactions; Python's discrete-
event machine handles that, but most tables only need the *rates* and
window statistics, which converge far earlier.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.core.record import record
from repro.eval.configs import EvalConfig
from repro.sim.stats import RunResult
from repro.workloads.spec.base import Benchmark, SPEC
from repro.workloads.whisper.benchmarks import WHISPER


@record(frozen=True)
class Suite:
    """One benchmark suite."""

    #: as the paper's tables name it
    label: str
    #: benchmark name -> its row, in the paper's order
    benchmarks: Mapping[str, Benchmark]
    #: operations per run when the caller names none.  The paper's runs
    #: use 100K transactions; every reported statistic is rate-based
    #: and stable far earlier (the benchmark harness asserts this).
    default_ops: int


SUITES: Dict[str, Suite] = {
    "whisper": Suite("WHISPER", WHISPER, 10_000),
    "spec": Suite("SPEC", SPEC, 8_000),
}


def run(suite: str, name: str, cfg: EvalConfig, *,
        ops: Optional[int] = None, num_threads: int = 1,
        seed: int = 2022) -> RunResult:
    """Run one benchmark of ``suite`` under one configuration."""
    row = SUITES[suite]
    bench = row.benchmarks[name]
    machine = cfg.build(bench.pmo_sizes(), seed=seed)
    return machine.run(bench.threads(
        num_threads, ops=row.default_ops if ops is None else ops,
        seed=seed))


def run_suite(suite: str, cfg: EvalConfig, *,
              names: Optional[Sequence[str]] = None,
              ops: Optional[int] = None, num_threads: int = 1,
              seed: int = 2022) -> Dict[str, RunResult]:
    """Run ``names`` (default: every benchmark of ``suite``)."""
    return {name: run(suite, name, cfg, ops=ops,
                      num_threads=num_threads, seed=seed)
            for name in names or SUITES[suite].benchmarks}
