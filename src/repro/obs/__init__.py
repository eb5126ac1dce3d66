"""repro.obs — the observability layer.

Zero-dependency instrumentation for the TERP reproduction, in three
pieces that share one design rule — *bounded memory, no-op mode, cheap
on the hot path*:

``registry``   counters / gauges / histograms (one fixed log-spaced
               bucket layout, percentiles read off the buckets),
               Prometheus text exposition and JSON dump —
               :class:`MetricsRegistry`
``tracing``    nestable spans (context manager or one-shot
               ``record_since``) in a ring — :class:`Tracer`
``audit``      the exposure-window audit timeline: every attach /
               detach / forced-detach / sweep with entity, PMO, and
               held duration, in a ring — :class:`AuditTimeline`
``ring``       the one ring type both are, each row kind stated once
               for its dict and its ``trace`` text — ``ring.Ring``

:class:`Observability` bundles the three with a single ``enabled``
switch; ``Observability(enabled=False)`` (or :meth:`Observability.noop`)
is the measured-overhead-free mode instrumented code paths check for.
"""

from __future__ import annotations

import functools
import time
from itertools import chain
from typing import Any, Callable, Dict, Hashable, Iterator, Optional

from repro.obs import ring
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
    "TraceAnswer",
    "Tracer",
    "trace_json",
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


class TraceAnswer:
    """The ``trace`` op's result — ``{"spans": tracer.recent(limit,
    name), "audit": audit.events(pmo, kind, limit), "open_windows":
    audit.open_windows(now_ns), "now_ns": now_ns}`` — as a snapshot of
    the rows it is written from (:func:`trace_json`).  Iterating it
    gives the JSON text the wire's encoder makes of that dict, a row at
    a time; ``size`` is that text's length, found by one such pass
    (made on first use, so with no lock held).  What it holds is the rows'
    column values, a few machine words each; its text is never whole
    in memory unless a reader joins it."""

    def __init__(self, spans: ring.Rows, events: ring.Rows,
                 open_windows: bytes, now_ns: bytes) -> None:
        self.spans, self.events, self.open_windows, self.now_ns = \
            spans, events, open_windows, now_ns

    def __iter__(self) -> Iterator[bytes]:
        return chain((b'{"spans":[',), self.spans.texts(),
                     (b'],"audit":[',), self.events.texts(),
                     (b'],"open_windows":', self.open_windows,
                      b',"now_ns":', self.now_ns, b"}"))

    @functools.cached_property
    def size(self) -> int:
        return sum(map(len, self))


def trace_json(tracer: Tracer, audit: AuditTimeline, *,
               limit: Optional[int] = None,
               pmo: Optional[Hashable] = None,
               kind: Optional[str] = None, name: Optional[str] = None,
               now_ns: Optional[int] = None) -> TraceAnswer:
    """The ``trace`` op's result, snapshotted: each ring's rows copied
    out under its lock, the open windows and the clock they were read
    at (``now_ns``: what an event's ``at_ns`` is measured against)
    encoded."""
    return TraceAnswer(tracer.snapshot(limit, name),
                       audit.snapshot(pmo=pmo, kind=kind, limit=limit),
                       ring.dumps(audit.open_windows(now_ns)),
                       ring.dumps(now_ns))
