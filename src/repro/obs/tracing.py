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
from operator import itemgetter, sub
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs import ring


class Span:
    """One in-flight span; records itself into the tracer on exit."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "start_ns",
                 "end_ns", "attrs", "thread")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], start_ns: int,
                 attrs: Dict[str, Any], thread: str) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs = attrs
        self.thread = thread

    def set(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def __enter__(self) -> "Span":
        self._tracer._local.state[0].append(self)
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


class _Local(threading.local):
    """A thread's span stack and name, made on its first use (a thread
    never renames itself here, and current_thread() is costly), and
    read in one lookup."""

    def __init__(self) -> None:
        self.state: Tuple[List[Span], str] = (
            [], threading.current_thread().name)


#: The key order of every span :meth:`Tracer.recent` returns.
_FIELDS = ("name", "span_id", "parent_id", "thread", "start_ns",
           "end_ns", "duration_ns", "attrs")


def _spans(seqs: Iterable[int], ids: Iterable[int], parents: Iterable,
           starts: Iterable, ends: Iterable, whats: Iterable[Tuple]
           ) -> Tuple:
    """Spans' columns, in :data:`_FIELDS` order, of the ring's."""
    return (map(itemgetter(0), whats), ids, parents,
            map(itemgetter(1), whats), starts, ends, map(sub, ends, starts),
            map(itemgetter(2), whats))


class Tracer:
    """Creates spans, keeps the most recent ``capacity`` of them."""

    def __init__(self, *, clock: Callable[[], int] = time.perf_counter_ns,
                 capacity: int = 4096, enabled: bool = True) -> None:
        self.clock = clock
        self.enabled = enabled
        self.capacity = capacity
        self._open = 0                    # spans begun, not yet ended
        # A ring (repro.obs.ring) of ids and times, and one (name,
        # thread, attrs) shared by spans whose attrs are equal, of equal
        # types, in key order.
        self._what = functools.lru_cache(maxsize=1024, typed=True)(
            lambda name, thread, /, **attrs: (name, thread, attrs))
        self.ring = ring.Ring(_FIELDS, "qqqqO", _spans, capacity)
        self._lock, self._put = self.ring.lock, self.ring.put
        self._ids = itertools.count(1)
        self._local = _Local()

    @property
    def spans_recorded(self) -> int:
        return self.ring.written

    @property
    def spans_started(self) -> int:
        return self.ring.written + self._open

    # -- span plumbing ----------------------------------------------------

    def _pop(self, span: Span) -> None:
        stack = self._local.state[0]
        if stack and stack[-1] is span:
            stack.pop()
        self._open -= 1
        self._store(span.name, span.thread, span.attrs, span.span_id,
                    span.parent_id, span.start_ns, span.end_ns)

    def _store(self, name: str, thread: str, attrs: Dict[str, Any],
               span_id: int, parent_id: Optional[int], start_ns: int,
               end_ns: int) -> None:
        try:
            what = self._what(name, thread, **attrs)
        except TypeError:                 # an unhashable value
            what = (name, thread, attrs)
        lock = self._lock
        lock.acquire()
        try:
            self._put(span_id, parent_id, start_ns, end_ns, what)
        finally:
            lock.release()

    # -- public API -------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A context manager timing the enclosed block."""
        if not self.enabled:
            return NULL_SPAN
        self._open += 1
        stack, thread = self._local.state
        return Span(self, name, next(self._ids),
                    stack[-1].span_id if stack else None, self.clock(),
                    attrs, thread)

    def record_since(self, name: str, start_ns: int,
                     **attrs: Any) -> None:
        """One-shot span from an explicit start timestamp.

        The cheap instrumentation path: the caller samples the clock
        itself, runs the work, then makes a single call here — no
        context-manager overhead on the hot path.
        """
        if not self.enabled:
            return
        end_ns = self.clock()
        stack, thread = self._local.state
        self._store(name, thread, attrs, next(self._ids),
                    stack[-1].span_id if stack else None, start_ns, end_ns)

    # -- reading back -----------------------------------------------------

    def snapshot(self, limit: Optional[int] = None,
                 name: Optional[str] = None) -> ring.Rows:
        """The one reader: the newest ``limit`` finished spans (named
        ``name``), copied out of the ring — decoded (:meth:`recent`) or
        encoded (a ``trace`` answer) with its lock released."""
        return self.ring.read(limit, None, None if name is None else (
            4, lambda what: what[0] == name))      # the what column

    def recent(self, limit: Optional[int] = None,
               name: Optional[str] = None) -> List[Dict[str, Any]]:
        """The most recent finished spans, oldest first."""
        *cols, attrs = self.snapshot(limit, name).columns()
        # dict(zip(_FIELDS, values)) of each row, its attrs (shared)
        # copied, with no Python frame per row.
        return list(map(dict, map(zip, itertools.repeat(_FIELDS),
                                  zip(*cols, map(dict, attrs)))))

    def stats(self) -> Dict[str, int]:
        return {
            "started": self.spans_started,
            "recorded": self.spans_recorded,
            "retained": min(self.spans_recorded, self.capacity),
            "capacity": self.capacity,
        }
