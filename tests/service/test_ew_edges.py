"""EW-Conscious edge cases the service layer leans on.

Three families, each exercised at the engine level (where the rule
lives) and, where it matters, through a running terpd:

* double-attach from the same entity/session — a semantics violation;
* a detach racing the sweeper's forced detach — a defined silent
  outcome, never a spurious error;
* circular-buffer wraparound with more than 32 live PMOIDs —
  evictions keep the buffer bounded, and a full buffer of held PMOs
  refuses further attaches rather than corrupting state.
"""

import time

import pytest

from repro.arch.cond_engine import TerpArchEngine
from repro.core.errors import TerpError
from repro.core.permissions import Access
from repro.core.semantics import EwConsciousSemantics, Outcome
from repro.core.units import MIB
from repro.pmo.api import PmoLibrary
from repro.service.client import RemoteError, SyncTerpClient
from repro.service.server import ServiceThread, TerpService

EW = 40_000   # 40us target for engine-level tests


class TestDoubleAttach:
    def test_software_engine_rejects_same_thread_overlap(self):
        engine = EwConsciousSemantics(EW)
        assert engine.attach(0, 1, Access.RW, 0).performed
        decision = engine.attach(0, 1, Access.RW, 10)
        assert decision.outcome is Outcome.ERROR

    def test_arch_engine_rejects_same_thread_overlap(self):
        engine = TerpArchEngine(EW)
        assert engine.attach(0, 1, Access.RW, 0).performed
        decision = engine.attach(0, 1, Access.RW, 10)
        assert decision.outcome is Outcome.ERROR
        # Other entities still attach fine (case 2).
        assert engine.attach(1, 1, Access.RW, 20).silent

    def test_service_surfaces_double_attach_as_error(self, terpd):
        with SyncTerpClient(port=terpd.port) as client:
            client.create("dbl", MIB)
            client.attach("dbl")
            with pytest.raises(RemoteError) as err:
                client.attach("dbl")
            assert "overlapping attach" in str(err.value)
            # The session is intact and can keep operating.
            client.detach("dbl")


class TestDetachSweeperRace:
    def test_forced_detach_makes_thread_detach_silent(self):
        engine = TerpArchEngine(EW)
        engine.attach(0, 1, Access.RW, 0)
        seen = []
        engine.on_forced_detach = lambda pmo, threads: \
            seen.append((pmo, threads))
        engine._force_detach(1)
        engine.cb.remove(1)
        assert seen == [(1, (0,))]
        # The thread's own detach lost the race: silent, not an error.
        decision = engine.detach(0, 1, 10)
        assert decision.outcome is Outcome.SILENT
        assert "forced" in decision.reason
        # Exactly once — a second detach is a genuine violation.
        assert engine.detach(0, 1, 20).outcome is Outcome.ERROR

    def test_reattach_supersedes_forced_marker(self):
        engine = TerpArchEngine(EW)
        engine.attach(0, 1, Access.RW, 0)
        engine._force_detach(1)
        engine.cb.remove(1)
        # Re-attach revives the pair: its detach must be real again.
        assert engine.attach(0, 1, Access.RW, 10).performed
        assert engine.detach(0, 1, 10 + EW).performed

    def test_service_detach_after_sweeper_force_detach(self):
        service = TerpService(port=0, session_ew_ns=20_000_000,
                              sweep_period_ns=5_000_000)
        with ServiceThread(service) as svc:
            with SyncTerpClient(port=svc.bound_port) as client:
                client.create("race", MIB)
                client.attach("race")
                deadline = time.monotonic() + 5.0
                while client.forced_detaches == 0:
                    assert time.monotonic() < deadline, \
                        "sweeper never fired"
                    time.sleep(0.01)
                    client.ping()
                # The client's own detach raced the sweeper and lost:
                # silent outcome, no error.
                result = client.detach("race")
                assert result["outcome"] == "silent"
                assert "force-detached" in result["reason"]


class TestCircularBufferWraparound:
    def _library(self, **kwargs):
        # The library's address space has a 15-key MPK pool; the engine
        # must evict before exhausting it (domain_capacity).
        kwargs.setdefault("domain_capacity", 15)
        return PmoLibrary(semantics=TerpArchEngine(EW, **kwargs),
                          strict=True)

    def test_more_than_32_live_pmoids_wrap_via_eviction(self):
        lib = self._library()
        engine = lib.runtime.semantics
        pmos = [lib.PMO_create(f"pmo{i}", MIB) for i in range(40)]
        # Attach + immediate detach: the detach is early (EW not met),
        # so every entry parks as delayed-detach (case 6, evictable).
        for i, pmo in enumerate(pmos):
            lib.tick(10)
            lib.attach(pmo, Access.RW)
            lib.tick(10)
            lib.detach(pmo)
        # 40 live PMOIDs went through the buffer: the overflow was
        # absorbed by evicting delayed-detach entries, and the mapped
        # population never outgrew the MPK key pool.
        assert len(engine.cb) <= 15
        assert engine.cases.case1_first_attach == 40
        assert engine.cases.sweep_detaches >= 25
        assert engine.cases.case6_delayed_detach == 40

    def test_engine_without_domain_bound_fills_all_32_entries(self):
        engine = TerpArchEngine(EW)     # pure engine, no substrates
        for i in range(32):
            assert engine.attach(0, i, Access.RW, i).performed
        assert len(engine.cb) == 32
        decision = engine.attach(0, 99, Access.RW, 99)
        assert decision.outcome is Outcome.ERROR

    def test_full_buffer_of_held_pmos_refuses_attach(self):
        lib = self._library()
        pmos = [lib.PMO_create(f"pmo{i}", MIB) for i in range(16)]
        for pmo in pmos[:15]:
            lib.tick(10)
            lib.attach(pmo, Access.RW)
        # Every mapped slot is held (ctr=1): nothing is evictable, the
        # next attach must refuse, not evict a live window.
        with pytest.raises(TerpError, match="no evictable entry"):
            lib.attach(pmos[15], Access.RW)

    def test_forced_detach_during_eviction_closes_victims_pair(self):
        lib = self._library(capacity=2)
        engine = lib.runtime.semantics
        a = lib.PMO_create("a", MIB)
        b = lib.PMO_create("b", MIB)
        c = lib.PMO_create("c", MIB)
        lib.attach(a, Access.RW)
        lib.tick(10)
        lib.detach(a)                      # case 6: delayed, evictable
        lib.attach(b, Access.RW)
        lib.tick(10)
        lib.attach(c, Access.RW)           # evicts a
        assert engine.cb.lookup(a.pmo_id) is None
        assert len(engine.cb) == 2

    def test_wraparound_through_the_service(self, terpd):
        with SyncTerpClient(port=terpd.port) as client:
            for i in range(36):
                name = f"wrap{i}"
                client.create(name, MIB)
                client.attach(name)
                client.detach(name)
            arch = client.metrics()["arch_cases"]
            assert arch["case1_first_attach"] >= 36
