"""repro.obs — the observability layer.

Zero-dependency instrumentation for the TERP reproduction, in three
pieces that share one design rule — *bounded memory, no-op mode, cheap
on the hot path*:

``registry``   counters / gauges / histograms (one fixed log-spaced
               bucket layout, percentiles read off the buckets),
               Prometheus text exposition and JSON dump —
               :class:`MetricsRegistry`
``tracing``    nestable spans (context manager or one-shot
               ``record_since``) in a ring buffer — :class:`Tracer`
``audit``      the exposure-window audit timeline: every attach /
               detach / forced-detach / sweep with entity, PMO, and
               held duration — :class:`AuditTimeline`

:class:`Observability` bundles the three with a single ``enabled``
switch; ``Observability(enabled=False)`` (or :meth:`Observability.noop`)
is the measured-overhead-free mode instrumented code paths check for.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from repro.obs.audit import AuditTimeline
from repro.obs.registry import (
    BUCKETS_NS, Counter, Gauge, Histogram, MetricsRegistry)
from repro.obs.tracing import NULL_SPAN, Span, Tracer

__all__ = [
    "AuditTimeline",
    "BUCKETS_NS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "Span",
    "Tracer",
]


class Observability:
    """One switchboard: a registry, a tracer, and an audit timeline."""

    def __init__(self, *, enabled: bool = True,
                 clock: Callable[[], int] = time.perf_counter_ns,
                 trace_capacity: int = 4096,
                 audit_capacity: int = 65536) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(clock=clock, capacity=trace_capacity,
                             enabled=enabled)
        self.audit = AuditTimeline(capacity=audit_capacity,
                                   enabled=enabled)

    @classmethod
    def noop(cls) -> "Observability":
        """An instance every recorder of which does nothing."""
        return cls(enabled=False)

    def dump(self, extra: Optional[Dict[str, Any]] = None
             ) -> Dict[str, Any]:
        """The full observability state as one JSON-able document."""
        out: Dict[str, Any] = {
            "enabled": self.enabled,
            "metrics": self.registry.to_dict(),
            "audit": self.audit.summary(),
            "trace": self.tracer.stats(),
        }
        if extra:
            out.update(extra)
        return out
