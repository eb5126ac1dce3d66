"""TerpRuntime: semantics decisions applied to real substrates."""

import random

import numpy as np
import pytest

from repro.core.errors import TerpError
from repro.core.permissions import Access
from repro.core.runtime import TerpRuntime
from repro.core.semantics import (
    BasicSemantics, EwConsciousSemantics, FcfsSemantics, Outcome)
from repro.core.units import MIB, us
from repro.pmo.pool import PmoManager
from repro.sim.stats import collect_exposure


def make_runtime(semantics=None):
    semantics = semantics or EwConsciousSemantics(us(40))
    manager = PmoManager()
    rt = TerpRuntime(semantics, manager=manager, rng=random.Random(1))
    pmo = manager.create("p", 8 * MIB)
    return rt, pmo


class TestAttachDetachFlow:
    def test_attach_maps_and_grants(self):
        rt, pmo = make_runtime()
        res = rt.attach(1, pmo, Access.RW, 0)
        assert res.ok
        assert rt.space.is_attached(pmo.pmo_id)
        assert rt.space.domains.allows(1, pmo.pmo_id, Access.RW)
        assert rt.monitor.ew.is_open(pmo.pmo_id)
        assert rt.monitor.tew.is_open((1, pmo.pmo_id))

    def test_lowered_detach_keeps_mapping_revokes_thread(self):
        rt, pmo = make_runtime()
        rt.attach(1, pmo, Access.RW, 0)
        rt.detach(1, pmo, us(1))
        assert rt.space.is_attached(pmo.pmo_id)
        assert not rt.space.domains.allows(1, pmo.pmo_id, Access.READ)
        assert not rt.monitor.tew.is_open((1, pmo.pmo_id))
        assert rt.monitor.ew.is_open(pmo.pmo_id)

    def test_real_detach_unmaps(self):
        rt, pmo = make_runtime()
        rt.attach(1, pmo, Access.RW, 0)
        rt.detach(1, pmo, us(41))
        assert not rt.space.is_attached(pmo.pmo_id)
        assert not rt.monitor.ew.is_open(pmo.pmo_id)

    def test_randomize_on_partial_detach(self):
        rt, pmo = make_runtime()
        rt.attach(1, pmo, Access.RW, 0)
        rt.attach(2, pmo, Access.RW, us(1))
        base_before = rt.space.mapping_of(pmo.pmo_id).base_va
        rt.detach(1, pmo, us(41))
        assert rt.counters.randomizations == 1
        assert rt.space.mapping_of(pmo.pmo_id).base_va != base_before

    def test_counters_silent_vs_syscall(self):
        rt, pmo = make_runtime()
        rt.attach(1, pmo, Access.RW, 0)          # performed
        rt.attach(2, pmo, Access.RW, us(1))      # silent (lowered)
        rt.detach(1, pmo, us(2))                 # silent
        rt.detach(2, pmo, us(41))                # performed
        c = rt.counters
        assert c.attach_syscalls == 1
        assert c.silent_attaches == 1
        assert c.detach_syscalls == 1
        assert c.silent_detaches == 1
        assert c.silent_percent == pytest.approx(50.0)

    def test_error_decision_counted_not_applied(self):
        rt, pmo = make_runtime()
        rt.attach(1, pmo, Access.RW, 0)
        res = rt.attach(1, pmo, Access.RW, 10)  # within-thread overlap
        assert res.decision.outcome is Outcome.ERROR
        assert rt.counters.errors == 1

    def test_strict_mode_raises(self):
        rt, pmo = make_runtime()
        rt.strict = True
        rt.attach(1, pmo, Access.RW, 0)
        with pytest.raises(TerpError):
            rt.attach(1, pmo, Access.RW, 10)

    def test_time_monotonicity_enforced(self):
        rt, pmo = make_runtime()
        rt.attach(1, pmo, Access.RW, 100)
        with pytest.raises(TerpError):
            rt.detach(1, pmo, 50)


class TestAccessFlow:
    def test_granted_access_ok(self):
        rt, pmo = make_runtime()
        rt.attach(1, pmo, Access.RW, 0)
        d = rt.access(1, pmo, 0, Access.WRITE, 10)
        assert d.outcome is Outcome.OK

    def test_fault_counted(self):
        rt, pmo = make_runtime()
        d = rt.access(1, pmo, 0, Access.READ, 0)
        assert d.outcome is Outcome.FAULT_SEGV
        assert rt.counters.faults == 1

    def test_fcfs_reattach_applies_map(self):
        rt, pmo = make_runtime(FcfsSemantics())
        rt.attach(1, pmo, Access.RW, 0)
        rt.attach(1, pmo, Access.RW, 10)
        rt.detach(1, pmo, 20)  # performed: unmapped
        assert not rt.space.is_attached(pmo.pmo_id)
        d = rt.access(1, pmo, 0, Access.READ, 30)
        assert d.outcome is Outcome.REATTACH
        assert rt.space.is_attached(pmo.pmo_id)

    def test_hardware_agrees_with_engine_for_ew_conscious(self):
        """Cross-validation: the MPK+matrix path and the semantics
        engine must agree on every access for the chosen semantics."""
        rt, pmo = make_runtime()
        rng = np.random.default_rng(3)
        t = 0
        for step in range(200):
            t += int(rng.integers(1, 2000))
            thread = int(rng.integers(1, 4))
            action = rng.integers(0, 4)
            if action == 0:
                rt.attach(thread, pmo, Access.RW, t)
            elif action == 1:
                rt.detach(thread, pmo, t)
            else:
                decision = rt.semantics.access(thread, pmo.pmo_id,
                                               Access.READ, t)
                mapping = rt.space.mapping_of(pmo.pmo_id)
                if mapping is None:
                    hw_ok = False
                else:
                    hw_ok = rt.space.check_access(thread, mapping.base_va,
                                                  Access.READ)
                assert (decision.outcome is Outcome.OK) == hw_ok, \
                    f"divergence at step {step}"


class TestTracing:
    """What the runtime's exposure monitor records of a run."""

    def test_relocation_splits_the_window_and_keeps_the_instant(self):
        rt, pmo = make_runtime()
        rt.attach(1, pmo, Access.RW, 0)
        rt.attach(2, pmo, Access.RW, us(1))
        rt.detach(1, pmo, us(41))      # randomize: thread 2 still holds
        rt.finish(us(80))
        assert rt.counters.randomizations == 1
        assert rt.monitor.relocations(pmo.pmo_id) == [us(41)]
        assert [(w.start_ns, w.end_ns)
                for w in rt.monitor.ew.windows(pmo.pmo_id)] == \
            [(0, us(41)), (us(41), us(80))]

    def test_finish_closes_windows(self):
        rt, pmo = make_runtime()
        rt.attach(1, pmo, Access.RW, 0)
        rt.finish(us(100))
        assert not rt.monitor.ew.is_open(pmo.pmo_id)
        [report] = collect_exposure(rt.monitor, us(100), num_threads=1)
        assert report.ew_avg_us == pytest.approx(100.0)
