"""The scenario table is the only statement of what chaos runs.

Conformance: every row of :data:`repro.faults.chaos.SCENARIOS` names a
registered topology, workload, scope set and check set, and a fault
plan only where one can be wired through.  Verdict: ``ok`` is exactly
the conjunction of the named checks, the per-scope reports and an
empty ``unexpected``.  Golden: the keys of the four result types the
engine replaced (``to_dict()`` captured at the parent commit of the PR
that introduced it) are all still in the one verdict's.
"""

import json
import os

import pytest

from repro.core import record
from repro.faults import chaos
from repro.faults.chaos import (
    CHECKS, SCENARIOS, SCOPES, WORKLOADS, Tally, Verdict, Workload, run)
from repro.faults.invariants import InvariantReport, Violation
from repro.topology import TOPOLOGIES

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "verdict_keys_at_parent.json")


class TestConformance:
    def test_the_five_rows(self):
        assert list(SCENARIOS) == ["chaos", "restart", "restart-proc",
                                   "cluster", "failover"]

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_a_row_names_registered_parts(self, name):
        row = SCENARIOS[name]
        assert row.name == name and row.summary
        assert row.topology in TOPOLOGIES
        assert set(row.scopes) <= set(SCOPES) and "each" in row.scopes
        assert set(row.checks) <= set(CHECKS)
        workload = WORKLOADS[row.workload]
        if workload.worker is not None:
            assert workload.size in row.sizes
        # A plan only exists in-thread, and the table says so.
        assert row.plan is None or row.topology == "thread"
        # A kill row is judged on what the kill did; no kill, no checks.
        assert bool(row.checks) == (row.kill is not None)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_a_rows_victim_is_one_its_topology_can_kill(self, name):
        row = SCENARIOS[name]
        shape = {"shards": row.sizes["shards"]} \
            if "shards" in row.sizes else {}
        topology = TOPOLOGIES[row.topology](
            {}, durable=row.durable, **shape)
        if row.kill is not None:
            assert row.kill.victim in topology.victims
            with pytest.raises(ValueError):
                topology.kill("the-router")

    def test_restart_and_restart_proc_differ_in_topology_and_plan(self):
        thread, proc = SCENARIOS["restart"], SCENARIOS["restart-proc"]
        differing = {f.name for f in record.fields(thread)
                     if getattr(thread, f.name) != getattr(proc, f.name)}
        assert differing == {"name", "summary", "topology", "plan"}
        assert (thread.topology, proc.topology) == ("thread", "process")

    def test_an_unknown_size_is_refused(self):
        with pytest.raises(ValueError, match="writers"):
            run("chaos", 1, writers=3)


def clean_verdict() -> Verdict:
    return Verdict("failover", 1,
                   checks={"promoted": True, "restart_seen": True},
                   reports={"primary": InvariantReport(),
                            "i7": InvariantReport()})


class TestVerdict:
    def test_ok_is_exactly_the_conjunction(self):
        assert clean_verdict().ok
        assert "OK" in clean_verdict().describe().splitlines()[0]
        for name in clean_verdict().checks:
            verdict = clean_verdict()
            verdict.checks[name] = False
            assert not verdict.ok, name
        for scope in clean_verdict().reports:
            verdict = clean_verdict()
            verdict.reports[scope].violations.append(
                Violation("bounded-exposure", "one window too long"))
            assert not verdict.ok, scope
        verdict = clean_verdict()
        verdict.unexpected.append("KeyError: 'x'")
        assert not verdict.ok
        first, *rest = verdict.describe().splitlines()
        assert first.endswith("FAILED")
        assert any("replay: " in line for line in rest)

    def test_tallies_merge(self):
        a, b = Tally(), Tally()
        a.ok, a.failed, a.by_kind = 3, 1, {"InjectedFault": 1}
        b.ok, b.failed, b.by_kind = 2, 2, {"InjectedFault": 1, "TerpError": 1}
        b.unexpected.append("ValueError: boom")
        a.merge(b)
        assert (a.ok, a.failed) == (5, 3)
        assert a.by_kind == {"InjectedFault": 2, "TerpError": 1}
        assert a.unexpected == ["ValueError: boom"]

    def test_a_harness_error_is_a_failed_verdict_not_a_crash(self):
        # The cycles workload on a row with no sizes: setup raises.
        row = record.replace(SCENARIOS["restart"],
                                  workload="cycles")
        verdict = run(row, 3)
        assert not verdict.ok
        assert verdict.unexpected[0].startswith("harness: KeyError")
        assert verdict.checks == dict.fromkeys(row.checks, False)

    def test_a_worker_that_never_returns_is_flagged(self, monkeypatch):
        monkeypatch.setattr(chaos, "JOIN_TIMEOUT_S", 0.2)
        monkeypatch.setitem(WORKLOADS, "wedge", Workload(
            worker=lambda run, idx, tally: run.stop.wait(),
            size="sessions"))
        row = record.replace(SCENARIOS["chaos"], workload="wedge")
        verdict = run(row, 3, sessions=1)
        assert not verdict.ok
        assert verdict.unexpected == [
            "worker chaos-w0 hung past deadline"]


@pytest.fixture(scope="module")
def verdicts():
    """One real run of each row, at the sizes CI uses."""
    return {"chaos": run("chaos", 42, sessions=2, requests=2),
            "restart": run("restart", 7),
            "restart-proc": run("restart-proc", 7),
            "cluster": run("cluster", 42, rounds=5),
            "failover": run("failover", 42)}


class TestGolden:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_the_run_is_clean_and_survives_json(self, verdicts, name):
        verdict = verdicts[name]
        assert verdict.ok, "\n" + verdict.describe()
        document = verdict.to_dict()
        assert json.loads(json.dumps(document)) == document
        assert document["scenario"] == name and document["ok"] is True
        assert document["checks"] == list(SCENARIOS[name].checks)
        assert document["replay"].startswith(
            f"python -m repro.faults.chaos {name} --seed ")

    @pytest.mark.parametrize("name", ["chaos", "restart", "cluster",
                                      "failover"])
    def test_every_key_of_the_old_result_type_is_kept(self, verdicts,
                                                      name):
        with open(FIXTURE, encoding="utf-8") as fh:
            at_parent = json.load(fh)[name]
        document = verdicts[name].to_dict()
        assert set(at_parent) <= set(document)
        for key, kind in at_parent.items():
            if key != "violations":
                assert type(document[key]).__name__ == kind, key
        # ``violations`` is scope -> list for every scenario now.
        assert set(document["violations"]) == \
            set(verdicts[name].reports)
        assert all(v == [] for v in document["violations"].values())

    def test_the_process_row_reports_what_the_thread_row_does(
            self, verdicts):
        # ... but for the plan's tally: no plan reaches a process.
        thread = set(verdicts["restart"].to_dict())
        proc = set(verdicts["restart-proc"].to_dict())
        assert thread - proc == {"faults_by_site"} and proc <= thread
        assert verdicts["restart-proc"].plan == {}

    def test_the_victims_timeline_carries_the_recovery(self, verdicts):
        for name in ("restart", "restart-proc", "cluster", "failover"):
            facts = verdicts[name].facts
            assert facts["recovery"]["sessions_restored"] >= 1, name
            assert facts["forced_detach_events"] >= 1, name


class TestCli:
    def test_scenario_defaults_to_chaos_and_out_is_the_verdict(
            self, tmp_path, capsys):
        out = tmp_path / "verdict.json"
        assert chaos.main(["--seed", "5", "--sessions", "2",
                           "--requests", "2", "--out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert (document["scenario"], document["seed"]) == ("chaos", 5)
        assert "--sessions 2 --requests 2" in document["replay"]
        assert capsys.readouterr().out.startswith("chaos seed 5: OK")

    def test_matrix_is_not_failover_only(self, tmp_path, capsys):
        out = tmp_path / "verdicts.json"
        assert chaos.main(["chaos", "--matrix", "3", "--jobs", "2",
                           "--requests", "2", "--out", str(out)]) == 0
        assert [d["seed"] for d in json.loads(out.read_text())] == \
            [0, 1, 2]
        assert "chaos matrix: 3/3 seeds OK" in capsys.readouterr().out

    def test_a_size_of_another_row_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            chaos.main(["cluster", "--writers", "3"])
        assert exit_info.value.code == 2
        assert "--shards --workers --rounds" in capsys.readouterr().err
