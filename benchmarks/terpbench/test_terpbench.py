"""terpbench's self-test (``pytest benchmarks/terpbench -q``; ~1 min).

Not in tier-1 ``testpaths``: it spawns real daemons.  It checks the
benchmark's own contract — names, counts, span trees, clean-up — not
terpd's speed.
"""

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.terpbench import probes, runner, spans  # noqa: E402
from benchmarks.terpbench.workloads import (  # noqa: E402
    BURST, REGION_PAGES, WORKLOADS, tenant_rng)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
COUNTS = ("service.protocol.bytes_per_cycle", "pmo.store.fsyncs_per_flush",
          "pmo.store.disk_bytes_per_user_byte")


def _bench(*args, **kwargs):
    return subprocess.run([sys.executable, str(HERE), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300,
                          **kwargs)


def _terpd_pids():
    """Every live process started as ``python -m repro.<server>``."""
    found = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if re.search(rb"repro\.(service|cluster|replication)", cmdline):
            found.add(int(entry.name))
    return found


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All six workloads, smoke-sized, untraced then traced."""
    out = tmp_path_factory.mktemp("terpbench-out")
    before = _terpd_pids()
    runs = {}
    for trace in (0, 1):
        done = _bench("--smoke", "--trace", str(trace), "--seed", "5",
                      "--out", str(out))
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        runs[trace] = done.stdout
    records = [json.loads(line) for line in
               (out / "results.jsonl").read_text().splitlines()]
    return {"out": out, "records": records, "stdout": runs,
            "leaked": _terpd_pids() - before}


def test_spec_names_and_limits():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(WORKLOADS[w["name"]].why == w["why"]
               for w in SPEC["workloads"])
    assert SPEC["paths"] == ["benchmarks/terpbench"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_all_workloads_emit_exactly_the_spec(smoke):
    records = smoke["records"]
    assert sorted((r["workload"], r["trace"]) for r in records) == \
        sorted((w, t) for w in WORKLOADS for t in (0, 1))
    for record in records:
        section = SPEC["per_layer" if record["trace"] else "end_to_end"]
        assert list(record["metrics"]) == [m["name"] for m in section]
        for meta in section:
            assert record["metrics"][meta["name"]]["unit"] == meta["unit"]
        assert record["correct"] and record["failed"] == 0
        assert record["attempted"] >= 1
        assert record["loop"] == "closed" and record["clients"] == 2
        if not record["trace"]:
            assert all(m["value"] > 0 for m in record["metrics"].values())


def test_last_stdout_line_is_the_result_object(smoke):
    for trace, stdout in smoke["stdout"].items():
        last = json.loads(stdout.strip().splitlines()[-1])
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
        for metric in last["metrics"].values():
            assert sorted(metric) == ["unit", "value"]


def test_every_percentile_carries_a_sample_count(smoke):
    for record in smoke["records"]:
        percentiles = [n for n in runner.TIMINGS
                       if re.search(r"_p\d+_us$", n)]
        assert percentiles and set(record["timings"]) == set(runner.TIMINGS)
        if record["trace"]:
            percentiles.append("service.client.cycle_p99_us")
        for name in percentiles:
            assert record["samples"][name] > 0, (record["workload"], name)
    assert re.search(r"cycle_p50_us\s+\S+ us\s+\(n=\d+\)",
                     smoke["stdout"][0])
    assert re.search(r"cycle_p95_us\s+\S+ us\s+\(n=\d+\)",
                     smoke["stdout"][1])


def test_span_files_form_trees(smoke):
    for workload in WORKLOADS:
        path = smoke["out"] / f"trace-{workload}.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows, workload
        ids = {row["id"] for row in rows}
        assert len(ids) == len(rows)
        for row in rows:
            assert sorted(row) == ["end_ns", "id", "name", "parent",
                                   "start_ns", "trace"]
            assert row["parent"] is None or row["parent"] in ids
            assert row["end_ns"] >= row["start_ns"]
        as_spans = [(r["name"], r["id"], r["parent"], r["trace"],
                     r["start_ns"], r["end_ns"]) for r in rows]
        assert all(ns >= 0 for ns in spans.self_times(as_spans).values())
        names = {row["name"] for row in rows}
        assert "service.client.psync" in names
        assert "pmo.store.flush" in names and "probes" in names


def test_psync_dominates_the_durable_cycle(smoke):
    """On the fsync-bound workloads the durable ack is where a cycle's
    time goes: the largest self-time child of the cycle span."""
    for workload in ("file_psync", "repl_psync"):
        rows = [json.loads(line) for line in
                (smoke["out"] / f"trace-{workload}.jsonl")
                .read_text().splitlines()]
        totals = {}
        for row in rows:
            if row["name"].startswith("service.client."):
                totals[row["name"]] = totals.get(row["name"], 0) + \
                    row["end_ns"] - row["start_ns"]
        assert max(totals, key=totals.get) == "service.client.psync"


def test_nothing_survives_a_run(smoke):
    assert not smoke["leaked"]
    assert not runner.TMP_ROOT.exists()


def test_gate_parks_tenants_between_cycles():
    from benchmarks.terpbench.workloads import Gate, Tenant

    class Spinner(Tenant):
        cycles = 0

        def cycle(self):
            self.cycles += 1
            time.sleep(0.001)

    gate = Gate()
    tenants = [Spinner(i, 0, random.Random(i), "small") for i in range(2)]
    for tenant in tenants:
        tenant.gate = gate
        tenant.start()
    time.sleep(0.05)
    gate.close(len(tenants))
    parked = [t.cycles for t in tenants]
    time.sleep(0.05)
    assert [t.cycles for t in tenants] == parked and all(parked)
    gate.open()
    time.sleep(0.05)
    assert all(t.cycles > n for t, n in zip(tenants, parked))
    gate.close(len(tenants))
    for tenant in tenants:
        tenant.request_stop()
    gate.open()
    for tenant in tenants:
        tenant.join(timeout=5.0)
        assert not tenant.is_alive()


def test_probe_counts_repeat_and_seeds_differ(tmp_path):
    def counts(seed):
        got = probes.run_all("page", seed, spans.SpanRecorder(),
                             tmp_path / "scratch")
        return [got[name][0] for name in COUNTS]

    assert counts(7) == counts(7)
    assert not (tmp_path / "scratch").exists()

    def page_order(seed):
        rng = tenant_rng(seed, 0)
        return [rng.sample(range(REGION_PAGES), BURST) for _ in range(4)]

    assert page_order(7) == page_order(7)
    assert page_order(7) != page_order(8)


def test_interrupt_leaves_no_process_or_temp_dir():
    before = _terpd_pids()
    bench = subprocess.Popen(
        [sys.executable, str(HERE), "--workload", "cluster_cycle",
         "--seconds", "20"], cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    deadline = time.monotonic() + 30.0
    while not (_terpd_pids() - before) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _terpd_pids() - before, "the cluster never came up"
    time.sleep(1.0)
    os.kill(bench.pid, signal.SIGINT)
    assert bench.wait(timeout=60) != 0
    assert not (_terpd_pids() - before)
    assert not runner.TMP_ROOT.exists()


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "terpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/terpbench", "--workload", "mem_cycle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_compare_verdicts(tmp_path):
    from benchmarks.terpbench import compare

    def write(name, values):
        with open(tmp_path / name, "w") as fh:
            for value in values:
                fh.write(json.dumps({
                    "workload": "mem_cycle", "trace": 0, "metrics": {
                        "wire_bytes_per_op": {"value": value,
                                              "unit": "B"}}})
                    + "\n")
        return str(tmp_path / name)

    rng = random.Random(1)
    steady = [1000 + rng.uniform(-5, 5) for _ in range(6)]
    base = write("base.jsonl", steady)
    assert compare.verdict(steady, [v * 0.99 for v in steady],
                           "higher", 0.10)[2] == "ok"
    assert compare.verdict(steady, [v * 0.80 for v in steady],
                           "higher", 0.10)[2] == "regressed"
    noisy = [600, 900, 1000, 1100, 1400, 1000]
    assert compare.verdict(steady, noisy, "higher", 0.10)[2] == "unresolved"
    assert compare.verdict(noisy, [v + 2000 for v in noisy],
                           "higher", 0.10)[2] == "ok"
    assert compare.main([base, write("fat.jsonl",
                                     [v * 1.6 for v in steady])]) == 1
    assert compare.main([base, write("same.jsonl", steady)]) == 0
