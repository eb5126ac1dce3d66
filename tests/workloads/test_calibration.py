"""Generated streams honour their specs' calibration targets."""

import numpy as np
import pytest

from repro.core.units import ns_to_us, us
from repro.sim.events import Burst, Compute, RegionEnd, TxBegin, TxEnd
from repro.workloads.spec.base import SPEC
from repro.workloads.whisper.benchmarks import WHISPER


def window_lengths_us(events):
    """Per-transaction window spans (TxBegin to TxEnd — where MERR's
    manual attach/detach pair goes)."""
    spans = []
    t = 0
    tx_start = None
    for event in events:
        if isinstance(event, TxBegin):
            tx_start = t
        elif isinstance(event, TxEnd):
            if tx_start is not None:
                spans.append(ns_to_us(t - tx_start))
            tx_start = None
        elif isinstance(event, Compute):
            t += event.ns
    return np.array(spans), ns_to_us(t)


class TestWhisperCalibration:
    @pytest.mark.parametrize("name", ["echo", "redis", "tpcc"])
    def test_window_mean_near_spec(self, name):
        bench = WHISPER[name]
        events = list(bench.thread_stream(ops=800, seed=3))
        spans, _ = window_lengths_us(events)
        target = bench.window_avg_us
        assert spans.mean() == pytest.approx(target, rel=0.35)

    @pytest.mark.parametrize("name", ["echo", "redis"])
    def test_window_max_bounded_by_spec(self, name):
        bench = WHISPER[name]
        events = list(bench.thread_stream(ops=800, seed=3))
        spans, _ = window_lengths_us(events)
        assert spans.max() <= bench.window_max_us * 1.05

    @pytest.mark.parametrize("name", ["echo", "ycsb"])
    def test_duty_cycle_matches_exposure_rate(self, name):
        """Window time over total time tracks the spec's ER."""
        bench = WHISPER[name]
        events = list(bench.thread_stream(ops=1_000, seed=5))
        spans, total_us = window_lengths_us(events)
        duty = spans.sum() / total_us
        assert duty == pytest.approx(bench.exposure_rate,
                                     rel=0.35)

    def test_burst_contents_from_measurement(self):
        bench = WHISPER["hashmap"]
        stats = bench.measure()
        bursts = [e for e in bench.thread_stream(ops=100, seed=2)
                  if isinstance(e, Burst)]
        mean_accesses = np.mean([b.n_accesses for b in bursts])
        assert mean_accesses == pytest.approx(stats.accesses, rel=0.3)
        assert all(b.write_fraction == stats.write_fraction
                   for b in bursts)


class TestSpecCalibration:
    @pytest.mark.parametrize("name", ["lbm", "xz"])
    def test_window_mean_near_spec(self, name):
        bench = SPEC[name]
        events = list(bench.thread_stream(ops=800, seed=3))
        spans, _ = window_lengths_us(events)
        assert spans.mean() == pytest.approx(bench.window_avg_us, rel=0.4)

    def test_stage_rotation_produces_low_per_pmo_duty(self):
        """xz's staged PMO use: each PMO is active only in its own
        stages, so per-PMO window time is a small slice of the run."""
        events = list(SPEC["xz"].thread_stream(ops=1_200, seed=4))
        t = 0
        per_pmo_burst_times = {}
        for event in events:
            if isinstance(event, Compute):
                t += event.ns
            elif isinstance(event, Burst):
                per_pmo_burst_times.setdefault(event.pmo, set()).add(t)
        assert len(per_pmo_burst_times) == 6
        # Every PMO saw traffic, in disjoint stage intervals.
        firsts = sorted(min(ts) for ts in per_pmo_burst_times.values())
        assert firsts == sorted(set(firsts))
