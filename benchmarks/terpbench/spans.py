"""terpbench's own in-memory span recorder.

Spans are recorded from the benchmark's side of each layer boundary —
around client calls and around the probes' calls into layer functions —
kept in memory, and written out after the run.  One tenant cycle is one
trace: the root span's id is the trace id, each client call a child
named ``service.client.<op>``.  A span's self time is its duration
minus its children's.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: (name, id, parent, trace, start_ns, end_ns)
Span = Tuple[str, int, Optional[int], int, int, int]


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        # next() on a count and list.append are single C calls: safe
        # from the two tenant threads without a lock.
        self._ids = itertools.count(1)

    def cycle(self, name: str, begin: int, ops: Sequence[str],
              marks: Sequence[int]) -> None:
        """One tenant cycle from the timestamps around its calls."""
        root = next(self._ids)
        self.spans.append((name, root, None, root, begin, marks[-1]))
        for op, start, end in zip(ops, marks, marks[1:]):
            self.spans.append((f"service.client.{op}", next(self._ids),
                               root, root, start, end))

    @contextlib.contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             trace: Optional[int] = None) -> Iterator[int]:
        """Time a block (the probes' form); yields the span id."""
        span_id = next(self._ids)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            self.spans.append((name, span_id, parent,
                               trace if trace is not None else span_id,
                               start, time.perf_counter_ns()))

    def write(self, path: Path) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            for name, span_id, parent, trace, start, end in self.spans:
                fh.write(json.dumps({
                    "name": name, "id": span_id, "parent": parent,
                    "trace": trace, "start_ns": start,
                    "end_ns": end}) + "\n")
        return len(self.spans)


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> self time (duration minus children's durations)."""
    own = {span[1]: span[5] - span[4] for span in spans}
    for _, _, parent, _, start, end in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def self_time_by_name(spans: Sequence[Span]) -> List[Tuple[str, int, int]]:
    """``(name, count, total self ns)`` rows, largest self time first."""
    own = self_times(spans)
    totals: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for name, span_id, *_ in spans:
        totals[name][0] += 1
        totals[name][1] += own[span_id]
    return sorted(((name, n, ns) for name, (n, ns) in totals.items()),
                  key=lambda row: -row[2])
