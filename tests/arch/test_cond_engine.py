"""CONDAT/CONDDT cases 1-6 and the sweeper (Figures 6 and 7)."""

import pytest

from repro.core.permissions import Access
from repro.core.semantics import ActionKind, Outcome
from repro.core.units import us
from repro.arch.cond_engine import TerpArchEngine

PMO = "pmo1"
RW = Access.RW
EW = us(40)


def kinds(decision):
    return [a.kind for a in decision.actions]


@pytest.fixture
def eng():
    return TerpArchEngine(EW)


class TestCondat:
    def test_case1_first_attach_performs_syscall(self, eng):
        d = eng.attach(1, PMO, RW, 0)
        assert d.performed
        assert ActionKind.MAP in kinds(d)
        assert eng.cases.case1_first_attach == 1
        assert eng.cb.lookup(PMO).ctr == 1

    def test_case2_subsequent_attach_increments_ctr(self, eng):
        eng.attach(1, PMO, RW, 0)
        d = eng.attach(2, PMO, RW, us(1))
        assert d.silent
        assert kinds(d) == [ActionKind.GRANT]
        assert eng.cases.case2_subsequent_attach == 1
        assert eng.cb.lookup(PMO).ctr == 2

    def test_case3_silent_attach_elides_pair(self, eng):
        """Window combining (Figure 6a): detach then attach soon after
        elides both system calls."""
        eng.attach(1, PMO, RW, 0)
        eng.detach(1, PMO, us(5))          # case 6: delayed
        d = eng.attach(2, PMO, RW, us(10))
        assert d.silent
        entry = eng.cb.lookup(PMO)
        assert not entry.dd and entry.ctr == 1
        assert eng.cases.case3_silent_attach == 1
        assert eng.cases.elided_syscall_pairs == 1

    def test_within_thread_overlap_is_error(self, eng):
        eng.attach(1, PMO, RW, 0)
        assert eng.attach(1, PMO, RW, 1).outcome is Outcome.ERROR


class TestConddt:
    def test_case4_partial_detach(self, eng):
        eng.attach(1, PMO, RW, 0)
        eng.attach(2, PMO, RW, 1)
        d = eng.detach(1, PMO, us(1))
        assert d.silent
        assert kinds(d) == [ActionKind.REVOKE]
        assert eng.cb.lookup(PMO).ctr == 1
        assert eng.cases.case4_partial_detach == 1

    def test_case5_full_detach_when_ew_met(self, eng):
        eng.attach(1, PMO, RW, 0)
        d = eng.detach(1, PMO, EW + 1)
        assert d.performed
        assert ActionKind.UNMAP in kinds(d)
        assert eng.cb.lookup(PMO) is None
        assert eng.cases.case5_full_detach == 1

    def test_case6_delayed_detach(self, eng):
        eng.attach(1, PMO, RW, 0)
        d = eng.detach(1, PMO, us(5))
        assert d.silent
        entry = eng.cb.lookup(PMO)
        assert entry.dd and entry.ctr == 0
        assert eng.cases.case6_delayed_detach == 1
        # Window still open: the PMO remains mapped.
        assert eng.is_mapped(PMO)

    def test_detach_without_attach_is_error(self, eng):
        assert eng.detach(1, PMO, 0).outcome is Outcome.ERROR

    def test_detach_after_detach_is_error(self, eng):
        eng.attach(1, PMO, RW, 0)
        eng.detach(1, PMO, 1)
        assert eng.detach(1, PMO, 2).outcome is Outcome.ERROR


class TestSweep:
    def test_full_combining_then_sweep_detach(self, eng):
        """Figure 6b: long computation after a silent detach; the
        sweeper closes the window when max EW is reached."""
        eng.attach(1, PMO, RW, 0)
        eng.detach(1, PMO, us(5))       # case 6: delayed
        assert eng.sweep(us(10)) == []  # not yet expired
        decisions = eng.sweep(EW + 1)
        assert len(decisions) == 1
        assert decisions[0].performed
        assert kinds(decisions[0]) == [ActionKind.UNMAP]
        assert eng.cb.lookup(PMO) is None
        assert not eng.is_mapped(PMO)

    def test_partial_combining_randomizes_held_pmo(self, eng):
        """Figure 6c: EW expires while threads still hold the PMO —
        randomize in place instead of detaching."""
        eng.attach(1, PMO, RW, 0)
        decisions = eng.sweep(EW + 1)
        assert len(decisions) == 1
        assert kinds(decisions[0]) == [ActionKind.RANDOMIZE]
        assert eng.cb.lookup(PMO).ts_ns == EW + 1  # clock reset
        assert eng.is_mapped(PMO)
        assert eng.cases.sweep_randomizes == 1

    def test_sweep_due_period(self, eng):
        assert eng.sweep_due(eng.sweep_period_ns)
        eng.sweep(eng.sweep_period_ns)
        assert not eng.sweep_due(eng.sweep_period_ns + 1)

    def test_ew_never_exceeded_without_holder(self, eng):
        """After the EW target, a swept unheld PMO must be unmapped."""
        eng.attach(1, PMO, RW, 0)
        eng.detach(1, PMO, us(30))
        eng.sweep(us(39))
        assert eng.is_mapped(PMO)
        eng.sweep(us(40))
        assert not eng.is_mapped(PMO)


class TestAccess:
    def test_access_respects_thread_permission(self, eng):
        eng.attach(1, PMO, Access.READ, 0)
        assert eng.access(1, PMO, Access.READ, 1).outcome is Outcome.OK
        assert eng.access(1, PMO, Access.WRITE, 2).outcome is \
            Outcome.FAULT_PERM
        assert eng.access(2, PMO, Access.READ, 3).outcome is \
            Outcome.FAULT_PERM

    def test_access_after_full_detach_segfaults(self, eng):
        eng.attach(1, PMO, RW, 0)
        eng.detach(1, PMO, EW + 1)
        assert eng.access(1, PMO, Access.READ, EW + 2).outcome is \
            Outcome.FAULT_SEGV

    def test_access_during_delayed_detach_needs_permission(self, eng):
        """After a case-6 detach the PMO is mapped but the thread's
        permission was revoked — the TEW is closed."""
        eng.attach(1, PMO, RW, 0)
        eng.detach(1, PMO, us(5))
        assert eng.access(1, PMO, Access.READ, us(6)).outcome is \
            Outcome.FAULT_PERM


class TestEviction:
    def test_full_buffer_evicts_delayed_entry(self):
        eng = TerpArchEngine(EW, capacity=2)
        eng.attach(1, "a", RW, 0)
        eng.attach(1, "b", RW, 1)
        eng.detach(1, "a", 2)  # delayed: evictable
        d = eng.attach(1, "c", RW, 3)
        assert d.performed
        assert ActionKind.UNMAP in kinds(d)  # a force-detached
        assert eng.cb.lookup("a") is None
        assert eng.cb.lookup("c") is not None

    def test_full_buffer_no_victim_is_error(self):
        eng = TerpArchEngine(EW, capacity=2)
        eng.attach(1, "a", RW, 0)
        eng.attach(1, "b", RW, 1)
        assert eng.attach(1, "c", RW, 2).outcome is Outcome.ERROR


class TestRuntimeIntegration:
    def test_arch_engine_drives_runtime(self):
        """The hardware engine is drop-in for TerpRuntime."""
        import random
        from repro.core.runtime import TerpRuntime
        from repro.core.units import MIB
        from repro.pmo.pool import PmoManager

        manager = PmoManager()
        eng = TerpArchEngine(EW)
        rt = TerpRuntime(eng, manager=manager,
                         rng=random.Random(5))
        pmo = manager.create("p", 8 * MIB)
        rt.attach(1, pmo, RW, 0)
        rt.detach(1, pmo, us(5))               # case 6
        assert rt.space.is_attached(pmo.pmo_id)
        rt.attach(2, pmo, RW, us(10))          # case 3
        assert rt.counters.silent_percent > 0
        for d in eng.sweep(us(60)):
            rt._apply(d, pmo, us(60))
        # PMO still held by thread 2 -> randomized, not detached.
        assert rt.counters.randomizations == 1
        assert rt.space.is_attached(pmo.pmo_id)
