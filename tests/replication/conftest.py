"""Shared by the tests that run a real in-process standby."""

import pytest

from repro.replication.applier import StandbyDaemon


@pytest.fixture
def standby(tmp_path):
    daemon = StandbyDaemon(tmp_path / "standby")
    daemon.start()
    yield daemon
    daemon.stop()


def settled(standby):
    """The applier's status, read under its lock.  An apply holds that
    lock from its journal write through its home write, and acks in
    between — so after a ``psync`` has returned, this returns only
    once the batch whose ack released it is home in the standby's
    pool."""
    return standby.applier.status()
