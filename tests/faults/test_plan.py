"""FaultPlan determinism, rule matching, replay records, and the
site table."""

import pathlib
import re

import pytest

import repro
from repro.core.errors import TerpError
from repro.faults import plan as plan_module
from repro.faults.plan import NO_FAULTS, SITES, FaultPlan, FaultRule


class TestFaultRule:
    def test_unknown_site_rejected(self):
        with pytest.raises(TerpError, match="unknown injection site"):
            FaultRule("nope.nope")

    def test_bad_probability_rejected(self):
        with pytest.raises(TerpError):
            FaultRule("lib.storage_write", probability=1.5)

    def test_roundtrip_dict(self):
        rule = FaultRule("server.conn_drop", "before",
                         probability=0.25, count=3, after=2,
                         delay_ns=500)
        assert FaultRule(**rule.to_dict()) == rule


class TestFireSemantics:
    def test_no_rules_is_a_miss(self):
        plan = FaultPlan(seed=1, rules=[])
        assert plan.fire("lib.storage_write") is None
        assert plan.fired() == []

    def test_count_limits_fires(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule("lib.storage_write", count=2)])
        fires = [plan.fire("lib.storage_write") for _ in range(5)]
        assert [f is not None for f in fires] == \
            [True, True, False, False, False]

    def test_after_skips_arrivals(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule("lib.storage_write", after=3, count=1)])
        fires = [plan.fire("lib.storage_write") for _ in range(5)]
        assert [f is not None for f in fires] == \
            [False, False, False, True, False]

    def test_sites_are_independent(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule("lib.storage_write", count=1)])
        assert plan.fire("lib.psync_stall") is None
        assert plan.fire("lib.storage_write") is not None

    def test_first_matching_rule_wins(self):
        first = FaultRule("lib.storage_write", kind="error", count=1)
        second = FaultRule("lib.storage_write", kind="crash")
        plan = FaultPlan(seed=1, rules=[first, second])
        assert plan.fire("lib.storage_write") is first
        # first is exhausted; the second rule takes over.
        assert plan.fire("lib.storage_write") is second

    def test_disarm_suspends_even_arrival_counting(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule("lib.storage_write", after=1, count=1)])
        plan.disarm()
        for _ in range(10):
            assert plan.fire("lib.storage_write") is None
        plan.arm()
        assert plan.fire("lib.storage_write") is None   # arrival 1
        assert plan.fire("lib.storage_write") is not None

    def test_duplicate_rules_keep_their_own_index(self):
        rule = FaultRule("lib.storage_write", count=1)
        plan = FaultPlan(seed=1, rules=[rule, rule])
        plan.fire("lib.storage_write")
        plan.fire("lib.storage_write")
        assert [inj.rule_index for inj in plan.fired()] == [0, 1]


class TestDeterminism:
    def make(self, seed):
        return FaultPlan(seed=seed, rules=[
            FaultRule("lib.storage_write", probability=0.3),
            FaultRule("server.conn_drop", probability=0.3)])

    def test_same_seed_same_schedule(self):
        a, b = self.make(99), self.make(99)
        pattern_a = [a.fire("lib.storage_write") is not None
                     for _ in range(50)]
        pattern_b = [b.fire("lib.storage_write") is not None
                     for _ in range(50)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_different_seed_different_schedule(self):
        patterns = set()
        for seed in range(8):
            plan = self.make(seed)
            patterns.add(tuple(
                plan.fire("lib.storage_write") is not None
                for _ in range(50)))
        assert len(patterns) > 1

    def test_traffic_at_other_sites_does_not_shift_schedule(self):
        a, b = self.make(5), self.make(5)
        pattern_a = []
        for i in range(40):
            if i % 2:
                a.fire("server.conn_drop")   # interleaved traffic
            pattern_a.append(a.fire("lib.storage_write") is not None)
        pattern_b = [b.fire("lib.storage_write") is not None
                     for _ in range(40)]
        assert pattern_a == pattern_b


class TestReporting:
    def test_injections_recorded_with_sequence(self):
        plan = FaultPlan(seed=1, rules=[
            FaultRule("lib.storage_write", count=2)])
        plan.fire("lib.storage_write")
        plan.fire("lib.storage_write")
        records = plan.fired("lib.storage_write")
        assert [r.seq for r in records] == [1, 2]
        assert [r.arrival for r in records] == [1, 2]

    def test_minimal_plan_is_only_fired_rules(self):
        never = FaultRule("server.conn_drop", probability=0.0)
        always = FaultRule("lib.storage_write", count=1)
        plan = FaultPlan(seed=1, rules=[never, always])
        plan.fire("server.conn_drop")
        plan.fire("lib.storage_write")
        assert plan.minimal() == [always]

    def test_on_fire_hook_sees_each_injection(self):
        seen = []
        plan = FaultPlan(seed=1, rules=[
            FaultRule("lib.storage_write", count=2)],
            on_fire=seen.append)
        plan.fire("lib.storage_write")
        plan.fire("lib.storage_write")
        plan.fire("lib.storage_write")
        assert [inj.seq for inj in seen] == [1, 2]

    def test_no_faults_singleton_is_inert(self):
        for site in SITES:
            assert NO_FAULTS.fire(site) is None


def test_every_site_has_one_fire_call_and_one_table_row():
    """Each registered site is fired from exactly one place in the
    stack and documented by exactly one row of the module's table."""
    root = pathlib.Path(repro.__file__).parent
    fires = re.findall(r'fire\("([\w.]+)"\)', "\n".join(
        path.read_text() for path in sorted(root.rglob("*.py"))))
    rows = re.findall(r"^``([\w.]+)``\s", plan_module.__doc__,
                      re.MULTILINE)
    for site in SITES:
        assert fires.count(site) == 1, site
        assert rows.count(site) == 1, site
    assert sorted(fires) == sorted(rows) == sorted(SITES)
