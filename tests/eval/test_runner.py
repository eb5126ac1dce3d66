"""The experiment runner: one benchmark, or a suite's."""

from repro.eval.configs import config
from repro.eval.runner import run, run_suite


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
