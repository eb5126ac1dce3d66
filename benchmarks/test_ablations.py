"""Ablation benches for the design choices DESIGN.md calls out.

Not paper figures per se, but each isolates one mechanism the paper's
results depend on:

* window combining (cases 3/6) — the syscall-elision engine;
* the EW-conscious semantics choice vs Basic under concurrency;
* the sweep period — security/overhead trade-off;
* the TEW target — the Figure 8-motivated 2µs choice.
"""

import pytest

from benchmarks.conftest import run_once
from repro.eval.configs import config
from repro.eval import runner


def test_window_combining_ablation(benchmark):
    """+CB vs +Cond on a combining-friendly workload: the circular
    buffer must elide a large share of real syscall pairs."""
    def run():
        with_cb = runner.run("whisper", "redis", config("TT"), ops=4_000)
        without_cb = runner.run("whisper", "redis", config("TT_COND"),
                                ops=4_000)
        return with_cb, without_cb
    with_cb, without_cb = run_once(benchmark, run)
    print()
    print(f"  with combining:    {with_cb.counters.attach_syscalls} "
          f"real attaches, overhead {with_cb.overhead_percent:.2f}%")
    print(f"  without combining: "
          f"{without_cb.counters.attach_syscalls} real attaches, "
          f"overhead {without_cb.overhead_percent:.2f}%")
    assert with_cb.counters.attach_syscalls < \
        0.5 * without_cb.counters.attach_syscalls
    assert with_cb.overhead_percent < without_cb.overhead_percent
    assert with_cb.arch_cases.case3_silent_attach > 0


def test_semantics_ablation_multithread(benchmark):
    """EW-conscious vs Basic semantics with 4 threads: composability
    is worth multiples of execution time."""
    def run():
        basic = runner.run("spec", "nab", config("TT_BASIC"),
                           ops=1_600, num_threads=4)
        ew = runner.run("spec", "nab", config("TT"), ops=1_600,
                        num_threads=4)
        return basic, ew
    basic, ew = run_once(benchmark, run)
    print()
    print(f"  basic semantics: {basic.overhead_percent:.1f}% "
          f"(blocked {basic.blocked_ns / 1e6:.2f} ms)")
    print(f"  EW-conscious:    {ew.overhead_percent:.1f}% "
          f"(blocked {ew.blocked_ns / 1e6:.2f} ms)")
    assert basic.overhead_percent > 2 * ew.overhead_percent
    assert basic.blocked_ns > 0
    assert ew.blocked_ns == 0


def test_sweep_period_ablation(benchmark):
    """Sweeping less often loosens EW enforcement (max EW grows) —
    the paper's 1µs hardware tick is on the tight end."""
    from repro.arch.cond_engine import TerpArchEngine
    from repro.core.units import us
    from repro.sim.machine import Machine
    from repro.sim.policy import CompilerTerpPolicy
    from repro.workloads.whisper.benchmarks import WHISPER

    def run():
        out = {}
        for period_us in (1, 8, 32):
            bench = WHISPER["echo"]
            machine = Machine(
                engine=TerpArchEngine(us(40),
                                      sweep_period_ns=us(period_us)),
                policy_factory=lambda: CompilerTerpPolicy(us(2)),
                pmo_sizes=bench.pmo_sizes())
            result = machine.run(bench.threads(1, ops=2_000, seed=11))
            out[period_us] = result.per_pmo[0].ew_max_us
        return out
    max_ews = run_once(benchmark, run)
    print()
    for period, ew_max in max_ews.items():
        print(f"  sweep every {period:2d}us -> max EW {ew_max:.1f}us")
    assert max_ews[1] <= max_ews[8] <= max_ews[32]
    assert max_ews[1] <= 42.0


def test_embedded_subtree_ablation(benchmark):
    """The MERR fast-attach substrate TERP builds on: an embedded
    page-table subtree makes attach cost O(1) in PMO size, while the
    conventional per-page path scales linearly (and catastrophically
    at 1GB)."""
    from repro.core.units import GIB, MIB
    from repro.mem.syscalls import attach_cost, page_based_attach_penalty

    def run():
        sizes = {"2MB": 2 * MIB, "64MB": 64 * MIB, "1GB": GIB}
        return {label: page_based_attach_penalty(size)
                for label, size in sizes.items()}
    penalties = run_once(benchmark, run)
    print()
    fast = attach_cost(embedded_subtree=True).total_cycles
    print(f"  embedded-subtree attach: {fast} cycles regardless of size")
    for label, penalty in penalties.items():
        print(f"  conventional attach of {label}: {penalty:,.0f}x "
              "the embedded cost")
    assert penalties["2MB"] < penalties["64MB"] < penalties["1GB"]
    assert penalties["1GB"] > 1_000


def test_tew_target_sweep(benchmark):
    """Tightening the TEW target cuts thread exposure but costs more
    conditional calls — the trade-off behind the 2µs choice."""
    def run():
        out = {}
        for tew in (0.5, 2.0, 8.0):
            result = runner.run("whisper", "ycsb",
                                config("TT", tew_target_us=tew),
                                ops=3_000)
            out[tew] = (result.ter_percent, result.cond_per_second)
        return out
    sweep = run_once(benchmark, run)
    print()
    for tew, (ter, cond) in sweep.items():
        print(f"  TEW target {tew:4.1f}us -> TER {ter:5.2f}%, "
              f"{cond:10.0f} cond/s")
    ters = [sweep[t][0] for t in (0.5, 2.0, 8.0)]
    conds = [sweep[t][1] for t in (0.5, 2.0, 8.0)]
    assert ters == sorted(ters)            # looser target, more exposure
    assert conds == sorted(conds, reverse=True)  # and fewer calls
