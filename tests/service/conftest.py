"""Shared fixtures: a live terpd on an ephemeral TCP port.

Set ``TERP_CLUSTER=N`` to run every test in this suite against an
N-shard cluster behind a router instead of a single in-process
daemon — the client-facing contract must be identical, so the same
e2e suite is the cluster's conformance suite.  Each test gets a
fresh cluster (exact-count assertions need per-test isolation).

Set ``TERP_REPLICA=1`` to run every test against a durable primary
shipping each committed journal batch semi-synchronously to a warm
in-process standby — replication must be invisible to clients, so
the same suite is the replicated daemon's conformance suite too.
"""

import os
import tempfile
import time
import types

import pytest

from repro.service.server import ServiceThread, TerpService


@pytest.fixture
def terpd():
    """A running daemon with test-friendly timing: generous session
    budget (tests that need expiry build their own tighter service)."""
    shards = int(os.environ.get("TERP_CLUSTER", "0"))
    if shards > 0:
        from repro.cluster.supervisor import ClusterSupervisor
        supervisor = ClusterSupervisor(
            shards=shards, session_ew_ns=2_000_000_000,
            sweep_period_ns=50_000_000)
        supervisor.start()
        # The shards sweep on their own; sweeper.run_sweep just waits
        # out a couple of periods for tests that nudge it by hand.
        yield types.SimpleNamespace(
            bound_port=supervisor.front_port,
            sweeper=types.SimpleNamespace(
                run_sweep=lambda: time.sleep(0.12)),
            supervisor=supervisor)
        supervisor.stop()
        return
    if os.environ.get("TERP_REPLICA") == "1":
        from repro.replication.applier import StandbyDaemon
        with tempfile.TemporaryDirectory(prefix="terp-repl-") as root:
            standby = StandbyDaemon(os.path.join(root, "standby"))
            repl_port = standby.start()
            thread = ServiceThread(TerpService(
                port=0, session_ew_ns=2_000_000_000,
                sweep_period_ns=50_000_000,
                pool_dir=os.path.join(root, "primary"),
                replicate_to=f"127.0.0.1:{repl_port}"))
            service = thread.start()
            yield service
            thread.stop()
            standby.stop()
        return
    thread = ServiceThread(TerpService(port=0,
                                       session_ew_ns=2_000_000_000,
                                       sweep_period_ns=50_000_000))
    service = thread.start()
    yield service
    thread.stop()
