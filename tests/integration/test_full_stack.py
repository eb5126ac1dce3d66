"""Cross-module integration scenarios.

Each test exercises several subsystems together, the way a downstream
user would: real data structures under TERP protection, crashes in
the middle of protected runs, the compiler driving the hardware
engine, and consistency between the simulator's exposure accounting
and the analytic security model.
"""

import numpy as np
import pytest

from repro import (
    Access, EwConsciousSemantics, PmoLibrary, ProtectionFault,
    TerpArchEngine)
from repro.core.runtime import TerpRuntime
from repro.core.theorem import attack_can_succeed, schedule_of
from repro.core.units import MIB, us
from repro.eval.configs import config
from repro.eval.runner import run_whisper
from repro.pmo.pool import PmoManager
from repro.workloads.structures import PersistentHashMap, TpccDatabase
from repro.workloads.whisper.benchmarks import get_benchmark


class TestProtectedDataStructures:
    def test_hashmap_under_terp_protection(self):
        """A real hash map driven through the protected API."""
        lib = PmoLibrary(ew_target_us=40.0)
        pmo = lib.PMO_create("store", 16 * MIB)
        lib.attach(pmo, Access.RW)
        table = PersistentHashMap.create(pmo, 64)
        for i in range(200):
            table.put(f"k{i}".encode(), f"v{i}".encode())
            lib.tick(100)   # 20us total: below the 40us EW target
        # Early detach: mapping survives, thread access does not.
        lib.detach(pmo)
        assert lib.runtime.space.is_attached(pmo.pmo_id)
        with pytest.raises(ProtectionFault):
            lib.read(pmo.root_oid, 8)
        # Re-attach and keep going: the structure is intact.
        lib.attach(pmo, Access.RW)
        assert table.get(b"k137") == b"v137"

    def test_crash_during_protected_tpcc_run(self):
        """Committed TPCC transactions survive a crash that lands in
        the middle of an open (uncommitted) one."""
        lib = PmoLibrary(ew_target_us=40.0)
        pmo = lib.PMO_create("tpcc", 64 * MIB)
        lib.attach(pmo, Access.RW)
        db = TpccDatabase.create(pmo)
        for i in range(20):
            db.new_order(0, i % 10, i % 30, 1, 100)
        balance_before = db.total_balance()
        # Crash with a transaction open.
        pmo.begin_tx()
        pmo.write(db._customer_off(0, 0, 0), b"\xff" * 8)
        lib.manager.simulate_reboot()
        recovered = TpccDatabase.open(lib.PMO_open("tpcc"))
        assert recovered.total_balance() == balance_before
        assert recovered.order_count == 20

    def test_exposure_windows_from_real_usage(self):
        """The monitor's windows reflect the actual attach/detach
        pattern of a hand-driven session."""
        lib = PmoLibrary(ew_target_us=40.0)
        pmo = lib.PMO_create("w", 8 * MIB)
        for _ in range(5):
            lib.attach(pmo, Access.RW)
            lib.tick(us(50))
            lib.detach(pmo)   # past the target: real detach
            lib.tick(us(50))
        lib.runtime.finish(lib.clock_ns)
        stats = lib.runtime.monitor.ew.stats()
        assert stats.count == 5
        assert stats.avg_ns == pytest.approx(us(50), rel=0.01)


class TestCompilerToHardware:
    def test_pass_output_runs_on_arch_engine_with_runtime(self):
        """Compiler-instrumented IR drives the full runtime stack:
        arch engine + address space + MPK + exposure monitor."""
        from repro.compiler.insertion import TerpInsertionPass
        from repro.compiler.interp import Interpreter
        from repro.compiler.ir import Compute, Load, Program, Store

        prog = Program()
        prog.declare_pmo_handle("h", "data")
        fn = prog.function("main")
        fn.block("entry", [Compute(100)]).jump("work")
        fn.block("work", [Load("h"), Compute(2_000), Store("h")]) \
            .branch("work", "done")
        fn.block("done", [Compute(100)])
        TerpInsertionPass(let_threshold_cycles=50_000,
                          tew_cycles=3_000).run(prog)

        engine = TerpArchEngine(us(40))
        result = Interpreter(prog, engine, seed=2,
                             branch_bias=0.9).run("main")
        assert result.clean
        assert result.attaches >= 2
        # Window combining kicked in: some attaches were silent.
        assert engine.cases.case3_silent_attach + \
            engine.cases.case6_delayed_detach > 0


class TestSimulationVsAnalyticSecurity:
    def test_measured_windows_satisfy_theorem(self):
        """The Theorem 6 schedule a simulated TT run recorded — its
        exposure windows and relocations, read off the runtime's
        monitor: no stationary+accessible stretch exceeds the run's
        measured ew_max, so any slower attack is prevented."""
        # The machine eval.runner.run_whisper builds, kept for its monitor.
        bench = get_benchmark("echo")
        machine = config("TT").build(bench.pmo_sizes(), seed=2022)
        result = machine.run(bench.threads(1, n_transactions=800,
                                           seed=2022))
        [exposure] = result.per_pmo
        schedule = schedule_of(machine.runtime.monitor, exposure.pmo)
        assert schedule.windows and schedule.relocations
        ew_max_ns = round(exposure.ew_max_us * 1_000)
        assert schedule.longest_stationary_accessible_ns() <= ew_max_ns
        assert not attack_can_succeed(schedule, ew_max_ns + 1)
        # And the measured max is near the configured 40us target.
        assert exposure.ew_max_us <= 45.0

    def test_gadget_armed_fraction_matches_ter(self):
        """The Table VI derivation: a uniformly-placed gadget's
        probability of executing with PMO access equals TER."""
        result = run_whisper("ycsb", config("TT"), n_transactions=800)
        ter = result.per_pmo[0].ter_percent
        er = result.per_pmo[0].er_percent
        assert 0 < ter < er < 100


class TestSemanticsHardwareEquivalence:
    def test_arch_engine_equals_software_semantics_single_thread(self):
        """For single-threaded call patterns below the EW target, the
        hardware engine and EW-conscious software semantics must make
        identical access decisions."""
        from repro.core.semantics import Outcome
        rng = np.random.default_rng(11)
        soft = EwConsciousSemantics(us(40))
        hard = TerpArchEngine(us(40))
        t = 0
        open_soft = open_hard = False
        for _ in range(300):
            t += int(rng.integers(100, 3_000))
            action = rng.integers(0, 3)
            if action == 0 and not open_soft:
                a = soft.attach(1, "p", Access.RW, t)
                b = hard.attach(1, "p", Access.RW, t)
                open_soft = open_hard = True
            elif action == 1 and open_soft:
                soft.detach(1, "p", t)
                hard.detach(1, "p", t)
                open_soft = open_hard = False
            else:
                a = soft.access(1, "p", Access.READ, t)
                b = hard.access(1, "p", Access.READ, t)
                assert (a.outcome is Outcome.OK) == \
                    (b.outcome is Outcome.OK), f"diverged at t={t}"
