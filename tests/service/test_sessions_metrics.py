"""Session registry (session -> entity mapping) and metrics math."""

import pytest

from repro.core.errors import TerpError
from repro.service.metrics import ServiceMetrics
from repro.service.sessions import SessionRegistry


class TestSessionRegistry:
    def test_entities_are_unique_and_out_of_thread_range(self):
        registry = SessionRegistry(default_ew_budget_ns=1_000_000)
        a = registry.create(user="alice")
        b = registry.create(user="bob")
        assert a.entity_id != b.entity_id
        assert min(a.entity_id, b.entity_id) >= \
            SessionRegistry.FIRST_ENTITY_ID
        assert registry.by_entity(a.entity_id) is a

    def test_budget_can_tighten_but_not_widen(self):
        registry = SessionRegistry(default_ew_budget_ns=1_000_000)
        tight = registry.create(ew_budget_ns=10_000)
        loose = registry.create(ew_budget_ns=9_999_999_999)
        assert tight.ew_budget_ns == 10_000
        assert loose.ew_budget_ns == 1_000_000
        with pytest.raises(TerpError):
            registry.create(ew_budget_ns=0)

    def test_expiry_selection(self):
        registry = SessionRegistry(default_ew_budget_ns=100)
        session = registry.create()
        session.note_attach(1, now_ns=0)
        session.note_attach(2, now_ns=80)
        assert session.expired(now_ns=120) == [1]
        assert sorted(session.expired(now_ns=500)) == [1, 2]

    def test_forced_detach_queues_event_and_clears_holding(self):
        registry = SessionRegistry(default_ew_budget_ns=100)
        session = registry.create()
        session.note_attach(7, now_ns=0)
        session.note_forced_detach(7, "data", 200, "budget elapsed")
        assert session.attached_at == {}
        events = session.drain_events()
        assert events[0]["event"] == "forced-detach"
        assert events[0]["pmo"] == "data"
        assert session.drain_events() == []   # drained exactly once

    def test_remove_marks_closed(self):
        registry = SessionRegistry(default_ew_budget_ns=100)
        session = registry.create()
        assert registry.remove(session.session_id) is session
        assert session.closed
        with pytest.raises(TerpError):
            registry.get(session.session_id)


class TestServiceMetrics:
    def test_note_request_tallies(self):
        metrics = ServiceMetrics()
        metrics.note_request("attach", 1_000, ok=True)
        metrics.note_request("attach", 3_000, ok=False)
        assert metrics.requests == 2
        assert metrics.errors == 1
        assert metrics.ops["attach"] == 2
        report = metrics.to_dict()
        assert report["request_latency"]["count"] == 2

    def test_note_sweep(self):
        metrics = ServiceMetrics()
        metrics.note_sweep(5_000)
        assert metrics.sweep_runs == 1
        assert metrics.to_dict()["sweep_latency"]["max_us"] == \
            pytest.approx(5.0)
