"""The temporal-protection theorem, property-tested under chaos.

Each case draws a seeded random fault plan (connection drops, partial
frames, injected crashes, storage faults, sweeper stalls, ...), runs a
multi-session terpd workload through it, and replays the audit
timeline against invariants I1-I6.  Any failure message carries the
seed and the minimal fault plan:

    python -m repro.faults.chaos --seed <N>
    python -m repro.faults.chaos restart --seed <N>

reproduce the run outside pytest.
"""

import dataclasses

import pytest

from repro.faults.chaos import (
    SCENARIOS, Verdict, random_plan, restart_plan, run)
from repro.faults.plan import FaultPlan, FaultRule

#: The property quantifies over this many seeded fault plans.
SEEDS = range(200)

#: The kill-and-restart leg spins up two real daemons per seed, so it
#: quantifies over fewer plans than the in-process property above.
RESTART_SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_theorem_holds_under_chaos(seed):
    result = run("chaos", seed, sessions=2, requests=2)
    assert result.ok, "\n" + result.describe()


class TestAcceptanceRun:
    """One demonstrably-faulted run: every fault class visibly fired,
    every request was acked or typed-failed, zero EW violations."""

    PLAN_RULES = [
        FaultRule("lib.storage_write", "error", after=1, count=1),
        FaultRule("engine.sweep_stall", "stall", after=2, count=2),
        FaultRule("server.conn_drop", "before", after=4, count=1),
    ]

    @pytest.fixture(scope="class")
    def result(self) -> Verdict:
        row = dataclasses.replace(
            SCENARIOS["chaos"], plan=lambda seed: FaultPlan(
                seed=seed, rules=list(self.PLAN_RULES)))
        return run(row, 4242, sessions=2, requests=3)

    def test_run_is_clean(self, result):
        assert result.ok, "\n" + result.describe()
        assert result.tally.ok > 0
        assert not result.unexpected

    def test_all_three_fault_classes_fired(self, result):
        for site in ("lib.storage_write", "engine.sweep_stall",
                     "server.conn_drop"):
            assert result.facts["faults_by_site"].get(site, 0) >= 1, \
                f"{site} never fired: {result.facts['faults_by_site']}"

    def test_faults_are_on_the_audit_timeline(self, result):
        for site in ("lib.storage_write", "engine.sweep_stall",
                     "server.conn_drop"):
            assert result.facts["faults_in_audit"].get(site, 0) >= 1, \
                f"{site} missing from audit: " \
                f"{result.facts['faults_in_audit']}"

    def test_dropped_connection_was_survived(self, result):
        # The conn drop forces a reconnect+resume (or, at worst, a
        # typed failure) — never a hang or an untyped exception.
        assert result.facts["resumes"] >= 1 or result.tally.failed >= 1

    def test_verdict_serializes(self, result):
        verdict = result.to_dict()
        assert verdict["seed"] == 4242
        assert verdict["ok"] is True
        assert verdict["plan"]["rules"]


@pytest.mark.parametrize("seed", RESTART_SEEDS)
def test_theorem_holds_across_restart(seed):
    """I6: kill -9 the daemon mid-workload, recover the pool, and the
    merged pre/post-crash timeline still bounds every exposure."""
    result = run("restart", seed)
    assert result.ok, "\n" + result.describe()


class TestRestartAcceptanceRun:
    """One kill-and-restart run with a guaranteed torn page: the fault
    visibly fired, the journal repaired it, and every restart property
    (data, resume, attribution, I1-I6) held."""

    @pytest.fixture(scope="class")
    def result(self) -> Verdict:
        # Tear every home-page write; the long sweep period keeps the
        # live scrubber from healing the final tear before the kill,
        # so the repair demonstrably comes from the recovery journal
        # replay.
        row = dataclasses.replace(
            SCENARIOS["restart"], sweep_period_ns=60_000_000_000,
            plan=lambda seed: FaultPlan(seed=seed, rules=[
                FaultRule("store.torn_page", "torn", probability=1.0,
                          count=1000)]))
        return run(row, 777)

    def test_run_is_clean(self, result):
        assert result.ok, "\n" + result.describe()

    def test_torn_page_fired_and_was_repaired(self, result):
        assert result.facts["faults_by_site"].get(
            "store.torn_page", 0) >= 1
        assert result.facts["pages_repaired"] >= 1

    def test_recovery_report_restored_the_session(self, result):
        assert result.facts["recovery"].get("sessions_restored", 0) >= 1
        assert result.checks["session_resumed"]

    def test_verdict_serializes(self, result):
        verdict = result.to_dict()
        assert verdict["seed"] == 777
        assert verdict["ok"] is True


class TestPlanGeneration:
    def test_random_plan_is_seed_deterministic(self):
        a, b = random_plan(17), random_plan(17)
        assert [r.to_dict() for r in a.rules] == \
            [r.to_dict() for r in b.rules]

    def test_random_plans_vary_across_seeds(self):
        shapes = {tuple(r.site for r in random_plan(s).rules)
                  for s in range(20)}
        assert len(shapes) > 1

    def test_restart_plan_is_seed_deterministic(self):
        a, b = restart_plan(23), restart_plan(23)
        assert [r.to_dict() for r in a.rules] == \
            [r.to_dict() for r in b.rules]

    def test_restart_plan_never_injects_bit_rot(self):
        # Rot quarantines the workload PMO; the restart leg's property
        # is that committed data survives intact, so rot is excluded.
        for seed in range(50):
            assert all(r.site != "store.bit_rot"
                       for r in restart_plan(seed).rules)
