"""Lightweight tracing spans with ring-buffer retention.

A :class:`Tracer` hands out :class:`Span` context managers::

    with tracer.span("terpd.attach", pmo="bench"):
        ...

or wraps functions::

    @tracer.wrap("lib.psync")
    def psync(...): ...

Spans nest per thread (a thread-local stack supplies parent ids), so a
sweep span opened on the sweeper thread never becomes the parent of a
request span on the event-loop thread.  Finished spans land in a
bounded ring buffer — old spans fall off the back, the tracer never
grows without bound — and can be read back (:meth:`Tracer.recent`) or
exported as JSONL (:meth:`Tracer.export_jsonl`).

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
import json
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

#: The ring holds one flat tuple per finished span, in this order;
#: :meth:`Tracer.recent` — the only reader — builds the dicts.
_Row = Tuple[str, int, Optional[int], str, int, int, Dict[str, Any]]


def _as_dict(row: _Row) -> Dict[str, Any]:
    name, span_id, parent_id, thread, start_ns, end_ns, attrs = row
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "thread": thread,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "duration_ns": end_ns - start_ns,
        "attrs": attrs,
    }


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
        self._ring: Deque[_Row] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stacks = threading.local()

    # -- span plumbing ----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def _thread_name(self) -> str:
        # threading.current_thread() is surprisingly costly on a hot
        # path; a thread never renames itself here, so cache it.
        name = getattr(self._stacks, "name", None)
        if name is None:
            name = threading.current_thread().name
            self._stacks.name = name
        return name

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        # deque.append is atomic under the GIL; the recorded tally is
        # allowed to be approximate under contention — the ring itself
        # never loses a committed span.
        self._ring.append((span.name, span.span_id, span.parent_id,
                           span.thread, span.start_ns, span.end_ns,
                           span.attrs))
        self.spans_recorded += 1

    def current_span_id(self) -> Optional[int]:
        stack = self._stack()
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
        end = self.clock()
        stack = self._stack()
        self._ring.append((name, next(self._ids),
                           stack[-1].span_id if stack else None,
                           self._thread_name(), start_ns, end, attrs))
        self.spans_recorded += 1

    def wrap(self, name: Optional[str] = None) -> Callable:
        """Decorator form of :meth:`span`."""
        def decorate(fn: Callable) -> Callable:
            label = name if name is not None else fn.__qualname__

            @functools.wraps(fn)
            def inner(*args: Any, **kwargs: Any) -> Any:
                with self.span(label):
                    return fn(*args, **kwargs)
            return inner
        return decorate

    # -- reading back -----------------------------------------------------

    def recent(self, limit: Optional[int] = None,
               name: Optional[str] = None) -> List[Dict[str, Any]]:
        """The most recent finished spans, oldest first."""
        with self._lock:
            # Appends take no lock: the copy is the atomic step.
            rows = reversed(list(self._ring))
        if name is not None:
            rows = (r for r in rows if r[0] == name)
        rows = list(itertools.islice(rows, limit))
        rows.reverse()
        return [_as_dict(r) for r in rows]

    def export_jsonl(self, path) -> int:
        """Write every retained span as one JSON object per line."""
        records = self.recent()
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        return len(records)

    def stats(self) -> Dict[str, int]:
        return {
            "started": self.spans_started,
            "recorded": self.spans_recorded,
            "retained": len(self._ring),
            "capacity": self.capacity,
        }
