"""Regenerates Figure 11: 4-thread SPEC and the benefits breakdown.

Paper shape: with Basic semantics at most one thread can attach a PMO
and the rest wait — overheads reach ~800%.  Conditional instructions
(+Cond, EW-conscious semantics) let threads share PMOs; the circular
buffer (+CB, window combining) cuts the remaining syscalls.  Both
optimizations reduce overhead significantly, and overhead falls as
the EW target grows.
"""

from benchmarks.conftest import run_once
from repro.eval.experiments import overhead

ITERS = 2_400  # per-benchmark total across 4 threads


def test_fig11(benchmark):
    result = run_once(benchmark, overhead.run, "fig11", ops=ITERS,
                      num_threads=4)
    print()
    print(result.render())
    basic = result.config_total("Basic semantics")
    cond = result.config_total("+Cond (40us)")
    cb40 = result.config_total("+CB (40us)")
    cb160 = result.config_total("+CB (160us)")

    # Basic semantics serializes threads: very high overhead
    # (paper: up to ~800%).
    assert basic > 100.0
    assert all(blocked > 0 for blocked in result.blocked_ns.values())

    # Each mechanism helps: Basic >> +Cond >= +CB.
    assert basic > 2 * cond
    assert cb40 <= cond

    # Full TERP keeps 4-thread overhead modest and improving with
    # larger targets.
    assert cb40 < 60.0
    assert cb160 <= cb40 + 1.0
