"""Failover chaos: SIGKILL the primary, promote, check I1-I7.

One seeded run (the same one CI's replication-smoke executes): a real
two-process primary/standby pair, writers committing monotone
counters, the primary SIGKILLed mid-group-commit, the standby
promoted onto the primary's port, and the verdict requiring the
merged audit timeline to satisfy I1-I6 plus I7 — every acknowledged
write served back by the promoted daemon.
"""

from repro.faults.chaos import run


def test_failover_chaos_seed_42():
    result = run("failover", 42)
    assert result.ok, "\n" + result.describe()
    assert result.unexpected == []
    assert result.checks["promoted"]
    assert result.checks["restart_seen"]
    assert result.checks["outage_attributed"]
    # The run actually exercised both phases of the failover.
    assert result.checks["acked_before_kill"]
    assert result.checks["acked_after_promote"]
    assert result.facts["acks_before_kill"] > 0
    assert result.facts["acks_after_promote"] > 0
    # I7: nothing the dead primary acknowledged is below the promoted
    # daemon's read-back.
    i7 = result.reports["i7"]
    assert i7.ok, i7.describe()
    assert result.facts["acked"]
    for writer, promised in result.facts["acked"].items():
        assert result.facts["observed"][writer] is not None
        assert result.facts["observed"][writer] >= promised
    report = result.reports["primary"]
    assert report.ok, report.describe()
