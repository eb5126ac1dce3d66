"""Cluster chaos: kill a shard mid-traffic, check I1-I6 everywhere.

One seeded run (the same one CI's cluster-smoke executes): workers
hammer the router, shard 0 is SIGKILLed and warm-restarted, and the
exposure invariants must hold per shard *and* on the globally merged
timeline, with the victim's forced detaches outage-attributed and the
survivors untouched.
"""

from repro.faults.chaos import SCENARIOS, run


def test_cluster_chaos_seed_42_two_shards():
    row = SCENARIOS["cluster"]
    assert (row.session_ew_ns, row.sweep_period_ns) == \
        (400_000_000, 20_000_000)
    result = run("cluster", 42, shards=2, workers=4, rounds=5)
    assert result.ok, "\n" + result.describe()
    assert result.tally.ok > 0
    assert result.unexpected == []
    assert result.facts["victim_restarts"] >= 1
    assert result.checks["victim_restarted"]
    assert result.checks["victim_outage_attributed"]
    assert result.checks["survivors_clean"]
    assert set(result.reports) == {"shard0", "shard1", "global"}
    for scope, report in result.reports.items():
        assert report.ok, f"{scope}:\n{report.describe()}"
