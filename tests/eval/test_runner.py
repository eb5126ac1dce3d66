"""The experiment runner: one benchmark, or a suite's."""

from repro.eval.configs import config
from repro.eval.experiments import exposure, overhead
from repro.eval.runner import run, run_suite
from repro.workloads.spec import base
from repro.workloads.whisper.benchmarks import WHISPER


class TestRunner:
    def test_run_whisper_returns_result(self):
        result = run("whisper", "echo", config("TT"), ops=300)
        assert result.wall_ns > 0
        assert len(result.per_pmo) == 1

    def test_run_spec_has_all_pmos(self):
        result = run("spec", "xz", config("TT"), ops=300)
        assert len(result.per_pmo) == 6

    def test_whisper_suite_subset(self):
        results = run_suite("whisper", config("TT"),
                            names=["echo", "redis"], ops=200)
        assert set(results) == {"echo", "redis"}

    def test_spec_suite_subset(self):
        results = run_suite("spec", config("TT"), names=["lbm"], ops=200)
        assert set(results) == {"lbm"}

    def test_seed_changes_results(self):
        a = run("whisper", "redis", config("TT"), ops=300, seed=1)
        b = run("whisper", "redis", config("TT"), ops=300, seed=2)
        assert a.wall_ns != b.wall_ns

    def test_same_seed_reproduces(self):
        a = run("whisper", "redis", config("TT"), ops=300, seed=9)
        b = run("whisper", "redis", config("TT"), ops=300, seed=9)
        assert a.wall_ns == b.wall_ns
        assert a.to_dict() == b.to_dict()

    def test_multithread_whisper(self):
        result = run("whisper", "ycsb", config("TT"), ops=400,
                     num_threads=2)
        assert result.num_threads == 2
        assert result.counters.errors == 0

    def test_a_whisper_benchmark_is_measured_once(self, monkeypatch):
        """Table III then Figure 9 run each WHISPER benchmark 7 times
        and measure its real structure once: 6 measurements, not 42."""
        measured = []

        class Counting(base.CountingPmo):
            def __init__(self, pmo):
                measured.append(pmo.name)
                super().__init__(pmo)

        monkeypatch.setattr(base, "CountingPmo", Counting)
        base._measure.cache_clear()
        exposure.run("whisper", ops=100)
        overhead.run("fig9", ops=100)
        assert sorted(measured) == sorted(WHISPER)
