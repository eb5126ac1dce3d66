"""The metrics registry: counters, gauges, histograms.

A zero-dependency, thread-safe instrument registry in the Prometheus
mold.  Three instrument kinds:

* :class:`Counter` — a monotonically increasing tally;
* :class:`Gauge` — a value that can move both ways;
* :class:`Histogram` — a distribution held as counts over one fixed,
  log-spaced bucket layout (:data:`BUCKETS_NS`).  Its size is fixed
  at construction and every percentile it reports comes from its
  buckets by one rule (:func:`percentile`) — the same rule, over the
  same buckets, that :func:`merge_histograms` applies to several
  histograms' dicts, so the router's merged report of N daemons says
  what one daemon would have said for the same traffic.

Instruments are created (or re-fetched — creation is idempotent)
through a :class:`MetricsRegistry`, optionally labelled; the registry
renders everything as a JSON-able dict (:meth:`MetricsRegistry.to_dict`)
or in the Prometheus text exposition format
(:meth:`MetricsRegistry.prometheus_text`).

A registry built with ``enabled=False`` hands out shared null
instruments whose mutators do nothing: the no-op mode instrumented
code relies on to stay off the profile when observability is off.
"""

from __future__ import annotations

import bisect
import threading
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple)

from repro.core.errors import TerpError

#: label set in canonical (sorted, hashable) form
LabelItems = Tuple[Tuple[str, str], ...]
#: ``(upper bound, cumulative count)`` rows, ascending; the ``+Inf``
#: row's bound is ``None``.
Cumulative = Sequence[Tuple[Optional[float], int]]


def _log_bounds(low: int, high: int) -> Tuple[int, ...]:
    bounds = [low]
    while bounds[-1] < high:
        bounds.append(int(bounds[-1] * 2 ** (1 / 8)))
    return tuple(bounds)


#: The one histogram bucket layout, in nanoseconds: 161 upper bounds
#: from 1 us to just past 1 s, each at most 2**(1/8) (~9 %) above the
#: one before, so a percentile read off the buckets lies within 9 %
#: above the exact sample value.  The implicit ``+Inf`` bucket reports
#: the exact max.
BUCKETS_NS: Tuple[int, ...] = _log_bounds(1_000, 1_000_000_000)


def percentile(cumulative: Cumulative, p: float,
               max_value: float) -> float:
    """The p-th percentile (0..100) of a bucketed population: the
    upper bound of the first bucket whose cumulative count reaches p %
    of it, ``max_value`` for the ``+Inf`` bucket, 0 when empty."""
    if not cumulative[-1][1]:
        return 0
    need = p / 100.0 * cumulative[-1][1]
    for bound, running in cumulative:
        if running >= need:
            return max_value if bound is None else bound
    return max_value


def merge_histograms(hists: Iterable[Optional[Mapping[str, Any]]]
                     ) -> Dict[str, float]:
    """:meth:`Histogram.to_dict` documents -> one latency summary (us),
    the shape of the ``metrics`` op's ``global`` histogram rows.

    The buckets merge over the union of every document's bounds
    (``+Inf`` last), so documents recorded on another layout still
    merge; percentiles then follow :func:`percentile`.  Count, mean
    and max are exact.  One daemon's summary is the merge of its own
    histogram alone.
    """
    hists = [h for h in hists if h]
    per_bucket: Dict[Optional[float], int] = {}
    for hist in hists:
        previous = 0
        # A dict from JSON preserves insertion order: ascending
        # bounds then +Inf, so cumulative -> per-bucket is one pass.
        for le, cumulative in (hist.get("buckets") or {}).items():
            bound = None if le == "+Inf" else float(le)
            per_bucket[bound] = per_bucket.get(bound, 0) + \
                int(cumulative) - previous
            previous = int(cumulative)
    merged: List[Tuple[Optional[float], int]] = []
    running = 0
    for bound in sorted(b for b in per_bucket if b is not None):
        running += per_bucket[bound]
        merged.append((bound, running))
    merged.append((None, running + per_bucket.get(None, 0)))
    count = sum(int(h.get("count", 0)) for h in hists)
    total = sum(int(h.get("total", 0)) for h in hists)
    max_value = max((int(h.get("max", 0)) for h in hists), default=0)
    return {
        "count": count,
        "mean_us": total / count / 1e3 if count else 0.0,
        "p50_us": percentile(merged, 50, max_value) / 1e3,
        "p99_us": percentile(merged, 99, max_value) / 1e3,
        "max_us": max_value / 1e3,
    }


def _canon_labels(labels: Optional[Mapping[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _series_name(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Instrument:
    """Common identity for every registry-held instrument."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labels: LabelItems) -> None:
        self.name = name
        self.help_text = help_text
        self.labels = labels

    @property
    def series(self) -> str:
        return _series_name(self.name, self.labels)


class Counter(Instrument):
    """A monotonically increasing tally."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "",
                 labels: LabelItems = ()) -> None:
        super().__init__(name, help_text, labels)
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise TerpError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge(Instrument):
    """A value free to move in both directions."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "",
                 labels: LabelItems = ()) -> None:
        super().__init__(name, help_text, labels)
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram(Instrument):
    """Counts over :data:`BUCKETS_NS` plus an implicit ``+Inf``
    bucket; ``observe`` is one bisect and one increment."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 labels: LabelItems = ()) -> None:
        super().__init__(name, help_text, labels)
        self._counts = [0] * (len(BUCKETS_NS) + 1)   # last slot = +Inf
        self.count = 0
        self.total = 0
        self.max_value = 0
        self._lock = threading.Lock()

    def observe(self, value: int) -> None:
        index = bisect.bisect_left(BUCKETS_NS, value)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total += value
            if value > self.max_value:
                self.max_value = value

    def cumulative(self) -> List[Tuple[Optional[float], int]]:
        """Cumulative counts per upper bound, ``+Inf`` (None) last."""
        out: List[Tuple[Optional[float], int]] = []
        running = 0
        with self._lock:
            for bound, n in zip((*BUCKETS_NS, None), self._counts):
                running += n
                out.append((bound, running))
        return out

    def percentile(self, p: float) -> float:
        return percentile(self.cumulative(), p, self.max_value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_counts(self) -> List[Tuple[str, int]]:
        """Cumulative counts per ``le`` label, Prometheus-style."""
        return [("+Inf" if bound is None else str(bound), n)
                for bound, n in self.cumulative()]

    def to_dict(self) -> Dict[str, object]:
        cumulative = self.cumulative()
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "max": self.max_value,
            **{f"p{p}": percentile(cumulative, p, self.max_value)
               for p in (50, 90, 99)},
            "buckets": {"+Inf" if bound is None else str(bound): n
                        for bound, n in cumulative},
        }


class _NullCounter(Counter):
    def inc(self, amount: int = 1) -> None:    # noqa: ARG002
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: int) -> None:
        pass


#: Shared do-nothing instruments, handed out by disabled registries.
NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Creates, deduplicates, and renders instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same (name, labels) returns the same object; asking for an
    existing name with a different kind is an error.  When the registry
    is disabled, the same calls return shared null instruments and the
    registry renders empty.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[Tuple[str, LabelItems], Instrument] = {}
        self._lock = threading.Lock()

    # -- creation ---------------------------------------------------------

    def _get_or_create(self, cls, name: str, help_text: str,
                       labels: Optional[Mapping[str, str]]
                       ) -> Instrument:
        key = (name, _canon_labels(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TerpError(
                        f"instrument {name!r} already registered as "
                        f"{existing.kind}")
                return existing
            instrument = cls(name, help_text, key[1])
            self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, help_text: str = "",
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        out = self._get_or_create(Counter, name, help_text, labels)
        assert isinstance(out, Counter)
        return out

    def gauge(self, name: str, help_text: str = "",
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        out = self._get_or_create(Gauge, name, help_text, labels)
        assert isinstance(out, Gauge)
        return out

    def histogram(self, name: str, help_text: str = "",
                  labels: Optional[Mapping[str, str]] = None
                  ) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        out = self._get_or_create(Histogram, name, help_text, labels)
        assert isinstance(out, Histogram)
        return out

    # -- rendering --------------------------------------------------------

    def instruments(self) -> List[Instrument]:
        with self._lock:
            return sorted(self._instruments.values(),
                          key=lambda i: (i.name, i.labels))

    def to_dict(self) -> Dict[str, object]:
        """Everything the registry knows, as one JSON-able document."""
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for inst in self.instruments():
            if isinstance(inst, Histogram):
                histograms[inst.series] = inst.to_dict()
            elif isinstance(inst, Counter):
                counters[inst.series] = inst.value
            elif isinstance(inst, Gauge):
                gauges[inst.series] = inst.value
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def prometheus_text(self) -> str:
        """The text exposition format, one family at a time."""
        lines: List[str] = []
        seen_header = set()
        for inst in self.instruments():
            if inst.name not in seen_header:
                seen_header.add(inst.name)
                if inst.help_text:
                    lines.append(f"# HELP {inst.name} {inst.help_text}")
                lines.append(f"# TYPE {inst.name} {inst.kind}")
            if isinstance(inst, Histogram):
                for le, cumulative in inst.bucket_counts():
                    labels = inst.labels + (("le", le),)
                    lines.append(
                        f"{_series_name(inst.name + '_bucket', labels)}"
                        f" {cumulative}")
                lines.append(
                    f"{_series_name(inst.name + '_sum', inst.labels)}"
                    f" {inst.total}")
                lines.append(
                    f"{_series_name(inst.name + '_count', inst.labels)}"
                    f" {inst.count}")
            else:
                value = inst.value if isinstance(
                    inst, (Counter, Gauge)) else 0
                lines.append(f"{inst.series} {value}")
        return "\n".join(lines) + ("\n" if lines else "")
