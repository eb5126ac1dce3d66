"""Tracer semantics: nesting, per-thread stacks, retention, export."""

import json
import threading

from repro.obs.tracing import NULL_SPAN, Tracer


class ManualClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 10
        return self.now


class TestNesting:
    def test_parent_ids_nest_within_a_thread(self):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            with tracer.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        records = {r["name"]: r for r in tracer.recent()}
        assert records["outer"]["parent_id"] is None
        assert records["inner"]["parent_id"] == \
            records["outer"]["span_id"]
        assert records["sibling"]["parent_id"] == \
            records["outer"]["span_id"]

    def test_record_since_parents_under_open_span(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("sweep") as sweep:
            t0 = clock()
            tracer.record_since("engine.sweep", t0, decisions=3)
        records = {r["name"]: r for r in tracer.recent()}
        assert records["engine.sweep"]["parent_id"] == sweep.span_id
        assert records["engine.sweep"]["duration_ns"] > 0
        assert records["engine.sweep"]["attrs"] == {"decisions": 3}

    def test_stacks_are_per_thread(self):
        """The sweeper-thread scenario: a span open on one thread must
        never become the parent of a span on another."""
        tracer = Tracer()
        holding = threading.Event()
        release = threading.Event()

        def sweeper():
            with tracer.span("sweeper.pass"):
                holding.set()
                release.wait(5.0)

        worker = threading.Thread(target=sweeper, name="sweeper")
        worker.start()
        assert holding.wait(5.0)
        # The sweeper's span is open *right now* on its thread; a span
        # recorded here must still be a root.
        with tracer.span("request") as request:
            assert request.parent_id is None
        release.set()
        worker.join(5.0)
        records = {r["name"]: r for r in tracer.recent()}
        assert records["request"]["parent_id"] is None
        assert records["sweeper.pass"]["parent_id"] is None
        assert records["sweeper.pass"]["thread"] == "sweeper"
        assert records["request"]["thread"] != "sweeper"

    def test_exception_annotates_and_still_records(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise ValueError("nope")
        except ValueError:
            pass
        [record] = tracer.recent(name="boom")
        assert record["attrs"]["error"] == "ValueError"


class TestRetentionAndExport:
    def test_ring_keeps_most_recent(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        names = [r["name"] for r in tracer.recent()]
        assert names == ["s6", "s7", "s8", "s9"]
        stats = tracer.stats()
        assert stats["started"] == 10
        assert stats["recorded"] == 10
        assert stats["retained"] == 4

    def test_recent_filters_and_limits(self):
        tracer = Tracer()
        for name in ("a", "b", "a", "b", "a"):
            with tracer.span(name):
                pass
        assert len(tracer.recent(name="a")) == 3
        assert len(tracer.recent(limit=2)) == 2

    def test_export_jsonl(self, tmp_path):
        tracer = Tracer(clock=ManualClock())
        with tracer.span("one", tag="x"):
            pass
        path = tmp_path / "spans.jsonl"
        assert tracer.export_jsonl(path) == 1
        [line] = path.read_text().splitlines()
        record = json.loads(line)
        assert record["name"] == "one"
        assert record["attrs"] == {"tag": "x"}
        assert record["duration_ns"] == record["end_ns"] - \
            record["start_ns"]

    def test_record_shape_is_the_same_from_both_entry_points(self):
        """A context-manager span and a ``record_since`` span read
        back with the same keys, in the same order, with the values
        they were given — whatever the ring stores."""
        tracer = Tracer(clock=ManualClock())
        with tracer.span("outer", pmo="p") as outer:
            tracer.record_since("inner", 3, entity=4)
        thread = threading.current_thread().name
        assert tracer.recent() == [
            {"name": "inner", "span_id": 2, "parent_id": 1,
             "thread": thread, "start_ns": 3, "end_ns": 20,
             "duration_ns": 17, "attrs": {"entity": 4}},
            {"name": "outer", "span_id": 1, "parent_id": None,
             "thread": thread, "start_ns": outer.start_ns,
             "end_ns": 30, "duration_ns": 30 - outer.start_ns,
             "attrs": {"pmo": "p"}},
        ]
        keys = ["name", "span_id", "parent_id", "thread", "start_ns",
                "end_ns", "duration_ns", "attrs"]
        assert all(list(r) == keys for r in tracer.recent())

    def test_wrap_decorator(self):
        tracer = Tracer()

        @tracer.wrap()
        def traced(x):
            return x * 2

        assert traced(21) == 42
        [record] = tracer.recent()
        assert record["name"].endswith("traced")


class TestNoopMode:
    def test_disabled_tracer_is_inert(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("ignored")
        assert span is NULL_SPAN
        with span as inner:
            inner.set("k", "v")
        tracer.record_since("ignored", 0)
        assert tracer.recent() == []
        assert tracer.stats()["started"] == 0
        assert tracer.stats()["recorded"] == 0
