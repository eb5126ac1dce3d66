"""Backoff determinism, breaker transitions, idempotent replay."""

import pytest

from repro.core.errors import TerpError
from repro.faults.plan import FaultPlan, FaultRule
from repro.service.client import (
    ConnectionLost, RemoteError, SyncTerpClient)
from repro.service.retry import (
    CircuitBreaker, CircuitOpenError, RetryPolicy)
from repro.service.server import ServiceThread, TerpService


def delays(policy, n):
    return [policy.delay_for(attempt) for attempt in range(n)]


class TestRetryPolicy:
    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(base_delay_s=0.001, multiplier=2.0,
                             max_delay_s=0.005, jitter=0.0)
        assert delays(policy, 5) == [0.001, 0.002, 0.004, 0.005, 0.005]

    def test_seeded_sequence_is_deterministic(self):
        a = delays(RetryPolicy(seed=5), 8)
        b = delays(RetryPolicy(seed=5), 8)
        assert a == b
        assert delays(RetryPolicy(seed=6), 8) != a

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay_s=0.001, multiplier=2.0,
                             max_delay_s=1.0, jitter=0.5, seed=1)
        for attempt, delay in enumerate(delays(policy, 10)):
            ceiling = 0.001 * 2.0 ** attempt
            assert 0.5 * ceiling <= delay <= ceiling

    def test_backoff_uses_injected_sleep(self):
        # The client's retry after a dropped connection sleeps through
        # the policy's injected ``sleep``, for the policy's delay.
        slept = []
        plan = FaultPlan(seed=1, rules=[
            FaultRule("server.conn_drop", "before", count=1)])
        plan.disarm()
        with ServiceThread(service_with(plan)) as svc:
            with SyncTerpClient(
                    port=svc.bound_port, user="alice",
                    retry=RetryPolicy(seed=1, sleep=slept.append)) \
                    as client:
                plan.arm()
                client.ping()
                plan.disarm()
        assert slept == [RetryPolicy(seed=1).delay_for(0)]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TerpError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(TerpError):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    def make(self, threshold=2, timeout=1.0):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=threshold,
                                 reset_timeout_s=timeout,
                                 clock=lambda: now[0])
        return breaker, now

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_degrades_to_read_only(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.allow(readonly=False)
        assert breaker.allow(readonly=True)

    def test_half_open_admits_one_probe(self):
        breaker, now = self.make(timeout=1.0)
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 1.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()            # the probe
        assert not breaker.allow()        # no second probe
        assert breaker.allow(readonly=True)

    def test_probe_success_closes(self):
        breaker, now = self.make()
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 1.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        breaker, now = self.make()
        breaker.record_failure()
        breaker.record_failure()
        now[0] = 1.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2
        assert not breaker.allow()
        now[0] = 2.0
        assert breaker.allow()            # next probe after timeout

    def test_circuit_open_error_is_typed(self):
        assert issubclass(CircuitOpenError, TerpError)


def service_with(plan, **kwargs):
    kwargs.setdefault("session_ew_ns", 1_000_000_000)
    return TerpService(port=0, seed=7, faults=plan, **kwargs)


class TestTypedDisconnect:
    def test_pipeline_surfaces_connection_lost(self):
        # Satellite fix: a server disconnect mid-pipeline is a typed
        # ConnectionLost (a RemoteError), not a bare wire error.
        assert issubclass(ConnectionLost, RemoteError)
        plan = FaultPlan(seed=1, rules=[
            FaultRule("server.conn_drop", "before", count=1)])
        plan.disarm()
        with ServiceThread(service_with(plan)) as svc:
            client = SyncTerpClient(port=svc.bound_port, user="alice")
            client.connect()
            plan.arm()
            with pytest.raises(ConnectionLost):
                client.pipeline([("ping", {}), ("ping", {})])
            plan.disarm()
            client.close()

    def test_retry_reconnects_and_resumes_after_drop(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule("server.conn_drop", "before", count=1)])
        plan.disarm()
        with ServiceThread(service_with(plan)) as svc:
            client = SyncTerpClient(
                port=svc.bound_port, user="alice",
                retry=RetryPolicy(base_delay_s=0.0001, seed=3))
            client.connect()
            session_id = client.session_id
            plan.arm()
            assert client.ping()["sessions"] == 1
            plan.disarm()
            assert client.resumes == 1
            assert client.session_id == session_id
            client.goodbye()
            client.close()


class TestReplayIdempotency:
    def test_lost_response_is_replayed_not_reexecuted(self):
        # The attach executes server-side, the response frame is cut
        # short, the client retries the same rid after resuming: the
        # replay cache answers and the attach does NOT run twice.
        plan = FaultPlan(seed=1, rules=[
            FaultRule("server.partial_frame", "after", count=1)])
        plan.disarm()
        service = service_with(plan)
        with ServiceThread(service) as svc:
            port = svc.bound_port
            with SyncTerpClient(port=port, user="admin") as admin:
                admin.create("idem", 1 << 20, mode=0o666)
            client = SyncTerpClient(
                port=port, user="alice",
                retry=RetryPolicy(base_delay_s=0.0001, seed=3))
            client.connect()
            plan.arm()
            client.attach("idem")
            plan.disarm()
            assert plan.fired("server.partial_frame")
            assert client.resumes == 1
            assert service.metrics.replays_served == 1
            # The disconnect force-released the window; the client's
            # own detach is the defined silent no-op.
            client.detach("idem")
            client.goodbye()
            client.close()
        summary = service.obs.audit.summary()
        stats = summary["per_pmo"]["idem"]
        assert stats["attaches"] == 1
        assert stats["forced_detaches"] == 1
        events = service.obs.audit.events()
        assert any(e["kind"] == "forced-detach"
                   and "connection lost" in e["reason"]
                   for e in events)
