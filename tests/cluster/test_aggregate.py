"""Cross-shard metric merging: counters add, buckets merge exactly,
and every leaf that is not an additive count merges by its declared
rule."""

import pytest

from repro.cluster.aggregate import (
    aggregate_metrics, label_prometheus, merge_histograms, sum_tree)
from repro.obs.registry import MetricsRegistry


class TestSumTree:
    def test_numbers_add_and_dicts_merge(self):
        merged = sum_tree([
            {"a": 1, "nested": {"x": 2}, "only_left": 5},
            {"a": 10, "nested": {"x": 20, "y": 1}},
        ])
        assert merged == {"a": 11, "nested": {"x": 22, "y": 1},
                          "only_left": 5}

    def test_non_numeric_keeps_first(self):
        assert sum_tree(["foo", "bar"]) == "foo"
        assert sum_tree([True, False]) is True
        assert sum_tree([None, 3]) == 3


class TestHistogramMerge:
    def _hist(self, values):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "test")
        for value in values:
            hist.observe(value)
        return hist.to_dict()

    def test_merged_percentiles_come_from_the_union(self):
        # Shard A saw fast requests, shard B slow ones: the merged
        # p99 must reflect B's tail, which no weighted average of
        # the two shards' p99s would produce for p50.
        a = self._hist([1_000] * 90)          # 90 x 1us
        b = self._hist([1_000_000] * 10)      # 10 x 1ms
        merged = merge_histograms([a, b])
        assert merged["count"] == 100
        # p50 lands in a's bucket, p99 reaches into b's.
        assert merged["p50_us"] <= 10.0
        assert merged["p99_us"] >= 500.0
        assert merged["max_us"] == 1_000.0

    def test_mean_and_max_are_exact(self):
        a = self._hist([2_000, 4_000])
        b = self._hist([6_000])
        merged = merge_histograms([a, b])
        assert merged["count"] == 3
        assert abs(merged["mean_us"] - 4.0) < 1e-9
        assert merged["max_us"] == 6.0

    def test_empty_merge(self):
        assert merge_histograms([])["count"] == 0
        assert merge_histograms([None, {}])["count"] == 0


def _report(shard, requests, hist_values):
    registry = MetricsRegistry()
    hist = registry.histogram("terpd_request_latency_ns", "req")
    for value in hist_values:
        hist.observe(value)
    return {
        "shard": shard,
        "global": {"requests": requests, "errors": 0,
                   "request_latency": {"count": len(hist_values)},
                   "sweep_latency": {"count": 0}},
        "sessions": 1,
        "runtime": {"attach_calls": requests},
        "arch_cases": {"case1_first_attach": 1},
        "audit": {"attaches": 2, "windows": 2,
                  "held_mean_ns": 100.0, "held_max_ns": 150},
        "trace": {"started": 5, "recorded": 5},
        "registry": registry.to_dict(),
    }


class TestAggregateMetrics:
    def test_counters_add_and_shards_are_labelled(self):
        merged = aggregate_metrics(
            [_report(0, 10, [1_000]), _report(1, 32, [2_000])],
            sessions=3)
        assert merged["global"]["requests"] == 42
        assert merged["sessions"] == 3          # the router's truth
        assert merged["runtime"]["attach_calls"] == 42
        assert merged["cluster"]["shards"] == 2
        assert merged["cluster"]["per_shard_requests"] == \
            {"0": 10, "1": 32}
        assert merged["global"]["request_latency"]["count"] == 2

    def test_audit_held_stats_weighted_not_summed(self):
        a = _report(0, 1, [])
        b = _report(1, 1, [])
        a["audit"] = {"windows": 3, "held_mean_ns": 100.0,
                      "held_max_ns": 300}
        b["audit"] = {"windows": 1, "held_mean_ns": 500.0,
                      "held_max_ns": 500}
        merged = aggregate_metrics([a, b], sessions=0)
        assert merged["audit"]["windows"] == 4
        assert abs(merged["audit"]["held_mean_ns"] - 200.0) < 1e-9
        assert merged["audit"]["held_max_ns"] == 500

    def test_a_shard_without_buckets_contributes_nothing(self):
        # --no-obs: the registry renders empty on every shard.
        a = _report(0, 5, [1_000])
        b = _report(1, 5, [9_000])
        b["registry"] = {"counters": {}, "gauges": {}, "histograms": {}}
        merged = aggregate_metrics([a, b], sessions=0)
        assert merged["global"]["request_latency"]["count"] == 1
        assert merged["global"]["sweep_latency"]["count"] == 0

    @pytest.mark.parametrize("shards, expected", [
        # (silent_percent, attach_calls, detach_calls) per shard
        ([(60.0, 50, 50), (60.0, 50, 50)], 60.0),
        ([(40.0, 150, 150), (80.0, 50, 50)], 50.0),
        ([(75.0, 4, 4), (0.0, 0, 0)], 75.0),
        ([(0.0, 0, 0), (0.0, 0, 0)], 0.0),
    ])
    def test_silent_percent_is_weighted_by_calls(self, shards, expected):
        reports = []
        for index, (percent, attaches, detaches) in enumerate(shards):
            report = _report(index, 1, [])
            report["runtime"] = {"attach_calls": attaches,
                                 "detach_calls": detaches,
                                 "silent_percent": percent}
            reports.append(report)
        runtime = aggregate_metrics(reports, sessions=0)["runtime"]
        assert runtime["silent_percent"] == pytest.approx(expected)
        assert runtime["attach_calls"] == sum(s[1] for s in shards)

    def test_recovery_keeps_every_shards_lists_and_one_time_axis(self):
        a = _report(0, 1, [])
        b = _report(1, 1, [])
        a["recovery"] = {
            "epoch_wall_ns": 1_700_000_000_000_000_500,
            "downtime_ns": 40_000_000, "pmos_loaded": 3,
            "pmos_quarantined": [["rotten", "crc mismatch"]],
            "pmos_denied": [], "forced_detaches": 2}
        b["recovery"] = {
            "epoch_wall_ns": 1_700_000_000_000_000_100,
            "downtime_ns": 90_000_000, "pmos_loaded": 4,
            "pmos_quarantined": [["torn", "bad header"]],
            "pmos_denied": [["alien", "wrong magic"]],
            "forced_detaches": 1}
        recovery = aggregate_metrics([a, b], sessions=0)["recovery"]
        assert recovery["pmos_quarantined"] == [
            ["rotten", "crc mismatch"], ["torn", "bad header"]]
        assert recovery["pmos_denied"] == [["alien", "wrong magic"]]
        assert recovery["epoch_wall_ns"] == 1_700_000_000_000_000_100
        assert recovery["downtime_ns"] == 90_000_000
        assert recovery["pmos_loaded"] == 7
        assert recovery["forced_detaches"] == 3

    def test_only_one_shard_recovered(self):
        a = _report(0, 1, [])
        a["recovery"] = {"epoch_wall_ns": 5, "downtime_ns": 7,
                         "pmos_quarantined": [], "pmos_denied": []}
        merged = aggregate_metrics([a, _report(1, 1, [])], sessions=0)
        assert merged["recovery"] == a["recovery"]
        assert list(merged)[-2:] == ["cluster", "recovery"]

    def test_per_pmo_entries_come_from_their_one_owner(self):
        a = _report(0, 1, [])
        b = _report(1, 1, [])
        a["audit"]["per_pmo"] = {"left": {
            "pmo": "left", "windows": 2, "held_max_ns": 150}}
        b["audit"]["per_pmo"] = {"right": {
            "pmo": "right", "windows": 2, "held_max_ns": 90}}
        per_pmo = aggregate_metrics([a, b], sessions=0)["audit"]["per_pmo"]
        assert per_pmo == {**a["audit"]["per_pmo"],
                           **b["audit"]["per_pmo"]}


class TestPrometheusLabels:
    def test_labels_injected_into_bare_and_labelled_samples(self):
        text = ("# HELP terpd_requests_total requests\n"
                "terpd_requests_total 41\n"
                'terpd_bucket{le="+Inf"} 7\n')
        out = label_prometheus(text, 3)
        assert 'terpd_requests_total{shard="3"} 41' in out
        assert 'terpd_bucket{shard="3",le="+Inf"} 7' in out
        assert out.startswith("# HELP")
