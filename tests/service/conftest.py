"""Shared fixtures: a live terpd, stood up by :mod:`repro.topology`.

``TERP_TOPOLOGY`` names the shape, a ``TOPOLOGIES`` key: ``thread``
(the default) is one in-process daemon, ``cluster`` a router in front
of 2 shards, ``pair`` a durable primary process shipping each
committed journal batch semi-synchronously to a standby process.  The
client-facing contract must be identical in every shape, so this one
e2e suite is the conformance suite of each.  Each test gets a fresh
topology (exact-count assertions need per-test isolation).

A test marked ``@pytest.mark.sweep_period_ns(N)`` gets daemons
sweeping every ``N`` ns instead of every 50 ms.
"""

import os

import pytest

from repro.topology import TOPOLOGIES

TOPOLOGY = os.environ.get("TERP_TOPOLOGY", "thread")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "sweep_period_ns(n): the terpd fixture's sweep period")


@pytest.fixture
def terpd(request):
    """The running topology, with test-friendly timing (a generous
    session budget: tests that need expiry build their own tighter
    service).  Clients connect to ``terpd.port``; ``terpd.durable``
    says whether it serves from a pool."""
    marker = request.node.get_closest_marker("sweep_period_ns")
    period_ns = marker.args[0] if marker is not None else 50_000_000
    topology = TOPOLOGIES[TOPOLOGY](
        {"session_ew_ns": 2_000_000_000, "sweep_period_ns": period_ns},
        durable=TOPOLOGY == "pair")
    try:
        topology.start()
        yield topology
    finally:
        topology.stop()
