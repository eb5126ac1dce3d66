"""Lightweight tracing spans with ring-buffer retention.

A :class:`Tracer` hands out :class:`Span` context managers::

    with tracer.span("terpd.attach", pmo="bench"):
        ...

Spans nest per thread (a thread-local stack supplies parent ids), so a
sweep span opened on the sweeper thread never becomes the parent of a
request span on the event-loop thread.  Finished spans land in a
bounded ring buffer — old spans fall off the back, the tracer never
grows without bound — and are read back with :meth:`Tracer.recent`.

The clock is injectable: the default is ``time.perf_counter_ns`` (real
durations), but a simulation can pass its own manual clock so span
timestamps land on the simulated timeline.  For hot paths that cannot
afford a context manager, :meth:`Tracer.record_since` records a span
from an explicit start timestamp in one call.

A tracer built with ``enabled=False`` returns a shared null span whose
enter/exit do nothing — instrumented code stays on a single attribute
check when tracing is off.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import ring


class Span:
    """One in-flight span; records itself into the tracer on exit."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "start_ns",
                 "end_ns", "attrs", "thread")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], start_ns: int,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs = attrs
        self.thread = threading.current_thread().name

    def set(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end_ns = self._tracer.clock()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self)


class _NullSpan:
    """Shared do-nothing span for disabled tracers."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Creates spans, keeps the most recent ``capacity`` of them."""

    def __init__(self, *, clock: Callable[[], int] = time.perf_counter_ns,
                 capacity: int = 4096, enabled: bool = True) -> None:
        self.clock = clock
        self.enabled = enabled
        self.capacity = capacity
        self.spans_started = 0
        self.spans_recorded = 0
        # The ring (repro.obs.ring): ids and times in q columns (parent 0
        # is none: ids start at 1), and one (name, thread, attrs) shared
        # by spans whose attrs are equal, of equal types, in key order.
        self._what = functools.lru_cache(maxsize=1024, typed=True)(
            lambda name, thread, /, **attrs: (name, thread, attrs))
        self._cols = ring.columns("qqqqO", capacity)
        self._slots = capacity or 1
        self._spill: Dict[int, Tuple] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks = threading.local()

    # -- span plumbing ----------------------------------------------------

    def _local(self) -> Tuple[List[Span], str]:
        # This thread's span stack and name, made once: a thread never
        # renames itself here, and current_thread() is costly.
        local = self._stacks
        try:
            return local.stack, local.thread
        except AttributeError:
            local.stack = []
            local.thread = threading.current_thread().name
            return local.stack, local.thread

    def _push(self, span: Span) -> None:
        self._local()[0].append(span)

    def _pop(self, span: Span) -> None:
        stack = self._local()[0]
        if stack and stack[-1] is span:
            stack.pop()
        self._store(span.name, span.thread, span.attrs, span.span_id,
                    span.parent_id or 0, span.start_ns, span.end_ns)

    def _store(self, name: str, thread: str, attrs: Dict[str, Any],
               span_id: int, parent_id: int, start_ns: int,
               end_ns: int) -> None:
        try:
            what = self._what(name, thread, **attrs)
        except TypeError:                 # an unhashable value
            what = (name, thread, attrs)
        ids, parents, starts, ends, whats = self._cols
        lock = self._lock
        lock.acquire()
        try:
            n = self.spans_recorded
            self.spans_recorded = n + 1
            slot = n % self._slots
            if slot == len(whats):        # the ring is still filling
                ring.grow(self._cols, self._slots)
            whats[slot] = what
            if self._spill:
                self._spill.pop(slot, None)
            numbers = (span_id, parent_id, start_ns, end_ns)
            try:        # a float clock, 2**63 and past: kept exactly
                if type(start_ns) is not int or type(end_ns) is not int:
                    raise TypeError
                ids[slot], parents[slot], starts[slot], ends[slot] = numbers
            except (TypeError, OverflowError):
                self._spill[slot] = numbers
        finally:
            lock.release()

    def current_span_id(self) -> Optional[int]:
        stack = self._local()[0]
        return stack[-1].span_id if stack else None

    # -- public API -------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A context manager timing the enclosed block."""
        if not self.enabled:
            return NULL_SPAN
        self.spans_started += 1
        return Span(self, name, next(self._ids),
                    self.current_span_id(), self.clock(), attrs)

    def record_since(self, name: str, start_ns: int,
                     **attrs: Any) -> None:
        """One-shot span from an explicit start timestamp.

        The cheap instrumentation path: the caller samples the clock
        itself, runs the work, then makes a single call here — no
        context-manager overhead on the hot path.
        """
        if not self.enabled:
            return
        self.spans_started += 1
        end_ns = self.clock()
        stack, thread = self._local()
        self._store(name, thread, attrs, next(self._ids),
                    stack[-1].span_id if stack else 0, start_ns, end_ns)

    # -- reading back -----------------------------------------------------

    def recent(self, limit: Optional[int] = None,
               name: Optional[str] = None) -> List[Dict[str, Any]]:
        """The most recent finished spans, oldest first."""
        ids, parents, starts, ends, whats = self._cols
        with self._lock:
            slots = ring.newest_first(self.spans_recorded, self.capacity)
            if name is not None:
                slots = (s for s in slots if whats[s][0] == name)
            rows = []
            for slot in itertools.islice(slots, limit):
                span_id, parent_id, start_ns, end_ns = self._spill[slot] \
                    if self._spill and slot in self._spill else \
                    (ids[slot], parents[slot], starts[slot], ends[slot])
                span_name, thread, attrs = whats[slot]
                rows.append({  # attrs are shared: each row gets a copy
                    "name": span_name, "span_id": span_id,
                    "parent_id": parent_id or None, "thread": thread,
                    "start_ns": start_ns, "end_ns": end_ns,
                    "duration_ns": end_ns - start_ns, "attrs": dict(attrs)})
        rows.reverse()
        return rows

    def stats(self) -> Dict[str, int]:
        return {
            "started": self.spans_started,
            "recorded": self.spans_recorded,
            "retained": min(self.spans_recorded, self.capacity),
            "capacity": self.capacity,
        }
