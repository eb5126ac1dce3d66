"""WHISPER and SPEC trace generators."""

import pytest

from repro.core.units import GIB
from repro.eval.configs import config
from repro.eval.runner import run
from repro.sim.events import Burst, RegionEnd, TxBegin, TxEnd
from repro.workloads.spec.base import SPEC
from repro.workloads.whisper.benchmarks import WHISPER


class TestWhisperSpecs:
    def test_six_benchmarks(self):
        assert list(WHISPER) == ["echo", "ycsb", "tpcc", "ctree",
                                 "hashmap", "redis"]

    def test_one_gigabyte_pmo(self):
        for bench in WHISPER.values():
            assert bench.pmo_sizes() == {bench.name: GIB}

    def test_100k_default_transactions(self):
        for bench in WHISPER.values():
            assert bench.ops == 100_000

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            run("whisper", "doom", config("TT"), ops=10)

    def test_cycle_derived_from_er(self):
        bench = WHISPER["echo"]
        assert bench.cycle_us == pytest.approx(
            bench.window_avg_us / bench.exposure_rate)


class TestWhisperMeasurement:
    def test_measured_stats_plausible(self):
        stats = WHISPER["hashmap"].measure(samples=50)
        assert stats.accesses > 1
        assert 0.0 <= stats.write_fraction <= 1.0
        assert stats.unique_pages >= 1

    def test_measurement_cached(self):
        bench = WHISPER["ycsb"]
        assert bench.measure(samples=30) is bench.measure(samples=30)
        assert bench.measure(samples=30) is not bench.measure(samples=31)

    def test_readonly_mix_has_lower_write_fraction(self):
        echo = WHISPER["echo"].measure(samples=60)
        # Echo's mix is 60% put: writes present but not universal.
        assert 0.05 < echo.write_fraction < 0.95


class TestWhisperStreams:
    def test_stream_structure(self):
        events = list(WHISPER["echo"].thread_stream(ops=10, seed=11))
        kinds = [type(e) for e in events]
        assert kinds.count(TxBegin) == 10
        assert kinds.count(TxEnd) == 10
        assert kinds.count(RegionEnd) >= 10
        assert any(k is Burst for k in kinds)

    def test_bursts_reference_the_benchmark_pmo(self):
        for event in WHISPER["tpcc"].thread_stream(ops=5, seed=11):
            if isinstance(event, Burst):
                assert event.pmo == "tpcc"

    def test_deterministic_under_seed(self):
        bench = WHISPER["redis"]
        a = list(bench.thread_stream(ops=20, seed=5))
        b = list(bench.thread_stream(ops=20, seed=5))
        assert a == b

    def test_threads_split_transactions(self):
        streams = WHISPER["ctree"].threads(4, ops=40, seed=11)
        assert set(streams) == {0, 1, 2, 3}
        for stream in streams.values():
            events = list(stream)
            assert sum(1 for e in events
                       if isinstance(e, TxBegin)) == 10

    def test_all_benchmarks_constructible(self):
        for name, bench in WHISPER.items():
            assert bench.pmo_names() == [name]
            assert sum(isinstance(e, TxBegin)
                       for e in bench.thread_stream(ops=3, seed=1)) == 3


class TestSpecStreams:
    def test_five_benchmarks_with_paper_pmo_counts(self):
        counts = {name: bench.n_pmos for name, bench in SPEC.items()}
        assert counts == {"mcf": 4, "lbm": 2, "imagick": 3, "nab": 3,
                          "xz": 6}
        assert list(counts) == ["mcf", "lbm", "imagick", "nab", "xz"]

    def test_stage_rotation_covers_all_pmos(self):
        bench = SPEC["xz"]
        seen = set()
        for stage in range(bench.n_stages):
            seen.update(bench.stage_pmos(stage))
        assert seen == set(bench.pmo_names())

    def test_lbm_uses_both_pmos_every_stage(self):
        bench = SPEC["lbm"]
        for stage in range(4):
            assert set(bench.stage_pmos(stage)) == set(bench.pmo_names())

    def test_stream_bursts_touch_active_pmos_only(self):
        active = None
        for event in SPEC["mcf"].thread_stream(ops=16, seed=3):
            if isinstance(event, TxBegin):
                active = set(event.pmos)
            elif isinstance(event, Burst):
                assert event.pmo in active

    def test_pmos_larger_than_128kb(self):
        # The paper's PMO threshold: heap objects > 128KB.
        for bench in SPEC.values():
            for size in bench.pmo_sizes().values():
                assert size > 128 * 1024

    def test_unknown_spec_rejected(self):
        with pytest.raises(KeyError):
            run("spec", "fortran_dreams", config("TT"), ops=10)
