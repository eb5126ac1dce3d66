"""Registry semantics: the bucket layout, percentiles, exposition,
no-op mode."""

import math
import random
import tracemalloc

import pytest

from repro.core.errors import TerpError
from repro.obs import Observability
from repro.obs.registry import (
    BUCKETS_NS, NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM, Histogram,
    MetricsRegistry, merge_histograms)
from repro.service.metrics import ServiceMetrics


B0, B1, B2 = BUCKETS_NS[:3]
TOP = BUCKETS_NS[-1]


class TestHistogramBuckets:
    def test_bucket_edges_are_le_inclusive(self):
        """A value equal to an upper bound counts in that bucket,
        Prometheus ``le`` (less-or-equal) semantics."""
        hist = Histogram("h")
        for value in (B0, B1, B2):
            hist.observe(value)
        counts = dict(hist.bucket_counts())
        assert counts[str(B0)] == 1       # exactly B0 is <= B0
        assert counts[str(B1)] == 2
        assert counts[str(B2)] == 3
        assert counts["+Inf"] == 3

    def test_values_between_and_beyond_bounds(self):
        hist = Histogram("h")
        for value in (1, B0 + 1, B1 - 1, B1 + 1, TOP * 5):
            hist.observe(value)
        counts = dict(hist.bucket_counts())
        assert counts[str(B0)] == 1       # just 1
        assert counts[str(B1)] == 3       # + B0 + 1, B1 - 1
        assert counts[str(B2)] == 4       # + B1 + 1
        assert counts[str(TOP)] == 4
        assert counts["+Inf"] == 5        # + TOP * 5 in the overflow
        assert hist.count == 5
        assert hist.max_value == TOP * 5
        # The +Inf bucket reports the exact max.
        assert hist.percentile(100) == TOP * 5

    def test_cumulative_monotonic(self):
        hist = Histogram("h")
        for value in range(0, 2_000_000, 7_919):
            hist.observe(value)
        cumulative = [n for _, n in hist.bucket_counts()]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == hist.count

    def test_layout_is_ascending_and_log_spaced(self):
        """One layout: 1 us to past 1 s, no step wider than
        2**(1/8), so no percentile is more than ~9 % high."""
        assert BUCKETS_NS[0] == 1_000 and BUCKETS_NS[-2] < 1_000_000_000
        assert TOP >= 1_000_000_000 and len(BUCKETS_NS) <= 170
        for low, high in zip(BUCKETS_NS, BUCKETS_NS[1:]):
            assert low < high <= low * 2 ** (1 / 8)


class TestPercentiles:
    def test_percentiles_sit_within_one_bucket_above_the_exact(self):
        """On a lognormal latency sample (median ~73 us), the reported
        p50 and p99 are at least the exact sorted-sample value and at
        most 2**(1/8) times it — in the histogram and in the ``global``
        summary a daemon reports."""
        rng = random.Random(2022)
        values = [int(rng.lognormvariate(math.log(73_000), 0.6))
                  for _ in range(40_000)]
        metrics = ServiceMetrics()
        for value in values:
            metrics.note_request("ping", value, ok=True)
        hist = metrics.series["request_latency"]
        summary = metrics.request_latency
        ordered = sorted(values)
        for p in (50, 99):
            exact = ordered[math.ceil(p / 100 * len(values)) - 1]
            for reported in (hist.percentile(p),
                             summary[f"p{p}_us"] * 1e3):
                assert exact <= reported <= exact * 2 ** (1 / 8), \
                    (p, exact, reported)

    def test_empty_histogram_reports_zeros(self):
        hist = Histogram("h")
        assert hist.percentile(50) == 0
        assert merge_histograms([hist.to_dict()]) == {
            "count": 0, "mean_us": 0.0, "p50_us": 0.0, "p99_us": 0.0,
            "max_us": 0.0}


def test_histogram_memory_is_fixed_at_construction():
    """Between 10 and 100 000 observations a histogram's allocations
    grow by under 8 KiB: the bucket counts turning into larger ints,
    never a sample of the values."""
    hist = ServiceMetrics().series["request_latency"]
    rng = random.Random(7)
    values = [int(rng.lognormvariate(math.log(73_000), 1.0))
              for _ in range(100_000)]
    tracemalloc.start()
    try:
        for value in values[:10]:
            hist.observe(value)
        before = tracemalloc.take_snapshot()
        for value in values[10:]:
            hist.observe(value)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(
        before, "filename") if stat.size_diff > 0)
    assert hist.count == 100_000
    assert grown < 8 * 1024, grown


class TestRegistry:
    def test_get_or_create_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", labels={"x": "1"}) is not reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("dual")
        with pytest.raises(TerpError):
            reg.gauge("dual")
        with pytest.raises(TerpError):
            reg.histogram("dual")

    def test_noop_mode_hands_out_null_instruments(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("c") is NULL_COUNTER
        assert reg.gauge("g") is NULL_GAUGE
        assert reg.histogram("h") is NULL_HISTOGRAM
        reg.counter("c").inc()
        reg.gauge("g").set(5)
        reg.histogram("h").observe(123)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0
        assert NULL_HISTOGRAM.count == 0
        assert reg.to_dict() == {"counters": {}, "gauges": {},
                                 "histograms": {}}
        assert reg.prometheus_text() == ""

    def test_counter_monotonic(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(TerpError):
            counter.inc(-1)

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("reqs", "total requests").inc(7)
        reg.gauge("open", "open things").set(3)
        hist = reg.histogram("lat", "latency")
        hist.observe(5)
        hist.observe(B1)
        hist.observe(TOP * 5)
        text = reg.prometheus_text()
        assert "# HELP reqs total requests" in text
        assert "# TYPE reqs counter" in text
        assert "reqs 7" in text
        assert "# TYPE open gauge" in text
        assert "# TYPE lat histogram" in text
        assert f'lat_bucket{{le="{B0}"}} 1' in text
        assert f'lat_bucket{{le="{B1}"}} 2' in text
        assert f'lat_bucket{{le="{TOP}"}} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert f"lat_sum {5 + B1 + TOP * 5}" in text
        assert "lat_count 3" in text
        assert text.endswith("\n")

    def test_labelled_series_render(self):
        reg = MetricsRegistry()
        reg.counter("op", labels={"op": "attach"}).inc(2)
        reg.counter("op", labels={"op": "detach"}).inc(3)
        text = reg.prometheus_text()
        assert 'op{op="attach"} 2' in text
        assert 'op{op="detach"} 3' in text
        # One TYPE header for the family, not one per series.
        assert text.count("# TYPE op counter") == 1


class TestObservabilityBundle:
    def test_noop_bundle_disables_everything(self):
        obs = Observability.noop()
        assert not obs.enabled
        assert not obs.registry.enabled
        assert not obs.tracer.enabled
        assert not obs.audit.enabled
        dump = obs.dump()
        assert dump["enabled"] is False
        assert dump["audit"]["events"] == 0

    def test_dump_merges_extra(self):
        obs = Observability()
        obs.registry.counter("c").inc()
        dump = obs.dump(extra={"custom": 1})
        assert dump["custom"] == 1
        assert dump["metrics"]["counters"]["c"] == 1
