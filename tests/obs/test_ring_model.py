"""Both rings against a flat-tuple reference model.

The rings store columns of machine words; this model stores what the
rings replaced — one tuple per record in a list, the newest
``capacity`` kept — and builds each row the way the old readers did.
Seeded random sequences of every ``record_*`` kind and every span shape
drive ring and model side by side, with the values that do not fit a
column mixed in: a float clock, ints of 2**63 and past it (and -2**63,
the column's stand-in for None), ``str`` PMO ids, unhashable attrs,
attrs equal across types (True, 1, 1.0) and text a ``%`` format would
read.  Every read must match the model exactly: the same dicts, in the
same key order, each value of the same type — and the ``trace`` op's
answer, written from the columns, the same bytes as those dicts
encoded.
"""

import itertools
import random
import sys
import threading

import pytest

from repro.obs import trace_json
from repro.obs.audit import AuditTimeline
from repro.obs.tracing import Tracer
from repro.service import protocol

SEEDS = range(12)
CAPACITIES = (1, 7, 64)
STEPS = 240
CHECK_EVERY = 40

AUDIT_KEYS = ["seq", "kind", "at_ns", "entity", "pmo_id", "pmo",
              "duration_ns", "reason"]
SPAN_KEYS = ["name", "span_id", "parent_id", "thread", "start_ns",
             "end_ns", "duration_ns", "attrs"]

#: Timestamps: small, large, negative, past the column, and floats.
TIMES = (0, 17, 10 ** 12, -5, 2 ** 63 - 1, 2 ** 63, 2 ** 70, -2 ** 63,
         1.5, -0.25, 1e18)
ENTITIES = (None, 1, 2, 1001, 2 ** 63, -2 ** 63, 7.5)
#: (pmo_id, name): int ids, a recovered PMO quarantined by name, and a
#: PMO whose name is another's id.
PMOS = ((7, "pmo-a"), (8, "pmo-b"), ("pmo-c", "pmo-c"), (9, None),
        (2 ** 64, "pmo-big"), (10, "7"))
ATTRS = ({}, {"ok": True}, {"ok": 1}, {"ok": 1.0}, {"ok": False},
         {"ok": 0}, {"pmo": "pmo-a", "entity": 4},
         {"entity": 4, "pmo": "pmo-a"}, {"flushed": 2 ** 70},
         {"blob": [1, 2]}, {"blob": {"k": (1, 2)}}, {"decisions": 3},
         {"note": "%d %b 100% \u00fc"})
NAMES = ("terpd.attach", "terpd.detach", "engine.sweep", "lib.psync")
#: What each read filters on.
PMO_FILTERS = (None, 7, "pmo-a", "pmo-c", "7", 2 ** 64, "none")
KIND_FILTERS = (None, "attach", "forced-detach", "sweep", "quarantine",
                "no-such-kind")
SPAN_NAMES = (None, "terpd.attach", "engine.sweep", "no-such-span")


def same(got, want, keys):
    """Equal, same key order, and every value (attrs' too) the same
    type."""
    assert got == want
    for row, expected in zip(got, want):
        assert list(row) == keys
        for key in keys:
            assert type(row[key]) is type(expected[key]), (key, row,
                                                           expected)
        if "attrs" in row:
            assert list(row["attrs"]) == list(expected["attrs"])
            for key, value in row["attrs"].items():
                assert type(value) is type(expected["attrs"][key])


def newest(rows, keep, limit):
    picked = list(itertools.islice(
        (r for r in reversed(rows) if keep(r)), limit))
    picked.reverse()
    return picked


class AuditModel:
    """The timeline as a list of flat tuples, in the field order."""

    def __init__(self, capacity):
        self.capacity, self.rows, self.open = capacity, [], {}
        self.events_recorded = self.sweeps = self.faults_injected = 0

    def append(self, kind, at, entity, pmo_id, pmo, duration, reason):
        self.events_recorded += 1
        self.rows.append((self.events_recorded, kind, at, entity, pmo_id,
                          pmo, duration, reason))
        del self.rows[:-self.capacity]

    def attach(self, entity, pmo_id, pmo, at, reason):
        self.open.setdefault((entity, pmo_id), at)
        self.append("attach", at, entity, pmo_id, pmo, None, reason)

    def detach(self, entity, pmo_id, pmo, at, forced, reason):
        since = self.open.pop((entity, pmo_id), None)
        duration = None if since is None else max(0, at - since)
        self.append("forced-detach" if forced else "detach", at, entity,
                    pmo_id, pmo, duration, reason)

    def events(self, pmo=None, kind=None, limit=None):
        def keep(r):
            return ((pmo is None or r[4] == pmo or r[5] == pmo)
                    and (kind is None or r[1] == kind))
        return [dict(zip(AUDIT_KEYS, r))
                for r in newest(self.rows, keep, limit)]


def drive_audit(seed, capacity):
    rng = random.Random(seed)
    ring, model = AuditTimeline(capacity=capacity), AuditModel(capacity)
    for step in range(1, STEPS + 1):
        at = rng.choice(TIMES)
        entity = rng.choice(ENTITIES)
        pmo_id, name = rng.choice(PMOS)
        op = rng.randrange(8)
        if op in (0, 1):
            reason = rng.choice(("performed", "silent", ""))
            ring.record_attach(entity, pmo_id, name, at, reason=reason)
            model.attach(entity, pmo_id, name, at, reason)
        elif op in (2, 3):
            forced = rng.random() < 0.3
            reason = rng.choice(("performed", "budget elapsed", ""))
            ring.record_detach(entity, pmo_id, name, at, forced=forced,
                               reason=reason)
            model.detach(entity, pmo_id, name, at, forced, reason)
        elif op == 4:
            closed = rng.randrange(4)
            duration = rng.choice((None, 50, 1.5, 2 ** 63, -2 ** 63))
            ring.record_sweep(at, closed=closed, duration_ns=duration)
            model.sweeps += 1
            model.append("sweep", at, None, None, None, duration,
                         f"closed {closed} window(s)")
        elif op == 5:
            detail = rng.choice(("", "rule 0 arrival 3"))
            ring.record_fault("lib.storage_write", "transient", at,
                              detail=detail)
            model.faults_injected += 1
            model.append("fault", at, None, None, None, None,
                         "lib.storage_write [transient]"
                         + (f" {detail}" if detail else ""))
        elif op == 6:
            down = rng.choice((2_500_000, 2 ** 64, -3))
            ring.record_restart(at, downtime_ns=down, sessions_restored=2)
            model.append("restart", at, None, None, None, max(0, down),
                         f"recovered 2 session(s) after "
                         f"{down / 1e6:.1f}ms down")
        else:
            if rng.random() < 0.5:
                ring.record_scrub(at, verified=8, repaired=1,
                                  quarantined=0)
                model.append("scrub", at, None, None, None, None,
                             "verified 8, repaired 1, quarantined 0")
            else:
                ring.record_quarantine(pmo_id, name, at, reason="crc")
                model.append("quarantine", at, None, pmo_id, name, None,
                             "crc")
        if step % CHECK_EVERY == 0:
            yield ring, model


def check_audit(ring, model):
    assert ring.events_recorded == model.events_recorded
    assert ring.sweeps == model.sweeps
    assert ring.faults_injected == model.faults_injected
    for limit in (None, 0, 1, ring.capacity, ring.capacity + 5):
        for pmo in PMO_FILTERS:
            for kind in KIND_FILTERS:
                same(ring.events(pmo=pmo, kind=kind, limit=limit),
                     model.events(pmo, kind, limit), AUDIT_KEYS)


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_audit_ring_reads_as_the_model(seed, capacity):
    for ring, model in drive_audit(seed, capacity):
        check_audit(ring, model)


class ScriptedClock:
    """Hands out timestamps from ``TIMES``; remembers the last one."""

    def __init__(self, rng):
        self.rng, self.last = rng, None

    def __call__(self):
        self.last = self.rng.choice(TIMES)
        return self.last


class TracerModel:
    """The span ring as a list of flat tuples, finish order."""

    def __init__(self, capacity):
        self.capacity, self.rows, self.stack = capacity, [], []
        self.ids = itertools.count(1)
        self.started = self.recorded = 0
        self.thread = threading.current_thread().name

    def finish(self, name, span_id, parent_id, start, end, attrs):
        self.rows.append((name, span_id, parent_id, self.thread, start,
                          end, attrs))
        del self.rows[:-self.capacity]

    def recent(self, limit=None, name=None):
        return [{"name": n, "span_id": i, "parent_id": p, "thread": t,
                 "start_ns": s, "end_ns": e, "duration_ns": e - s,
                 "attrs": a}
                for n, i, p, t, s, e, a in newest(
                    self.rows, lambda r: name is None or r[0] == name,
                    limit)]

    def stats(self):
        return {"started": self.started, "recorded": self.recorded,
                "retained": len(self.rows), "capacity": self.capacity}


def drive_spans(seed, capacity):
    rng = random.Random(seed)
    clock = ScriptedClock(rng)
    tracer, model = Tracer(clock=clock, capacity=capacity), \
        TracerModel(capacity)

    def one_shot():
        name, attrs = rng.choice(NAMES), dict(rng.choice(ATTRS))
        start = rng.choice(TIMES)
        tracer.record_since(name, start, **attrs)
        model.started += 1
        model.recorded += 1
        model.finish(name, next(model.ids),
                     model.stack[-1] if model.stack else None, start,
                     clock.last, attrs)

    def nested(depth):
        name, attrs = rng.choice(NAMES), dict(rng.choice(ATTRS))
        span_id = next(model.ids)
        parent = model.stack[-1] if model.stack else None
        model.started += 1
        failed = rng.random() < 0.2
        try:
            with tracer.span(name, **attrs) as span:
                start = clock.last
                model.stack.append(span_id)
                for _ in range(rng.randrange(3)):
                    if depth < 2 and rng.random() < 0.5:
                        nested(depth + 1)
                    else:
                        one_shot()
                if rng.random() < 0.5:
                    key, value = rng.choice(
                        [("forced", 0), ("forced", False), ("n", 2 ** 64),
                         ("list", [3])])
                    span.set(key, value)
                    attrs[key] = value
                model.stack.pop()
                if failed:
                    raise KeyError("boom")
        except KeyError:
            attrs["error"] = "KeyError"
        model.recorded += 1
        model.finish(name, span_id, parent, start, clock.last, attrs)

    for step in range(1, STEPS + 1):
        if rng.random() < 0.6:
            one_shot()
        else:
            nested(0)
        if step % CHECK_EVERY == 0:
            yield tracer, model


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_span_ring_reads_as_the_model(seed, capacity):
    for tracer, model in drive_spans(seed, capacity):
        assert tracer.stats() == model.stats()
        assert tracer.spans_recorded == model.recorded
        for limit in (None, 0, 1, capacity, capacity + 5):
            for name in SPAN_NAMES:
                same(tracer.recent(limit=limit, name=name),
                     model.recent(limit, name), SPAN_KEYS)


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_the_trace_answer_is_the_dict_answer_encoded(seed, capacity):
    """The ``trace`` op writes its answer row by row from the rings;
    for every model case above, the frame must be byte for byte the one
    the dict readers' answer encodes to — spilled values and unhashable
    attrs included, every filter and limit, and a response carrying
    events as well as one without."""
    events = [{"event": "forced-detach", "pmo": "pmo-a", "pmo_id": 7,
               "at_ns": 1, "reason": "session EW budget"}]
    for (timeline, _), (tracer, _) in zip(drive_audit(seed, capacity),
                                          drive_spans(seed, capacity)):
        now_ns = timeline.events_recorded * 1000
        for limit, (pmo, kind, name) in itertools.product(
                (None, 0, 1, capacity, capacity + 5),
                zip(itertools.cycle(PMO_FILTERS),
                    KIND_FILTERS * len(PMO_FILTERS),
                    itertools.cycle(SPAN_NAMES))):
            rid = seed * 1000 + limit if limit is not None else -1
            pending = events if rid % 2 else None
            want = {"spans": tracer.recent(limit=limit, name=name),
                    "audit": timeline.events(pmo=pmo, kind=kind,
                                             limit=limit),
                    "open_windows": timeline.open_windows(now_ns),
                    "now_ns": now_ns}
            got = trace_json(tracer, timeline, limit=limit, pmo=pmo,
                             kind=kind, name=name, now_ns=now_ns)
            assert protocol.encode_frame(
                protocol.response(rid, "trace", got, pending)) == \
                protocol.encode_frame(
                    protocol.response(rid, "trace", want, pending))


def test_racing_writers_lose_no_record_and_tear_none():
    """A record is several column stores: threads recording at once,
    switched every microsecond, must each get a slot of their own and
    leave every row whole."""
    tracer = Tracer(capacity=256)
    timeline = AuditTimeline(capacity=256)
    workers, per = 8, 400

    def work(worker):
        for i in range(per):
            stamp = worker * 1_000_000 + i
            tracer.record_since(f"w{worker}", stamp, worker=worker, i=i)
            timeline.record_attach(worker, 7, "shared", stamp)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert tracer.spans_recorded == timeline.events_recorded == \
        workers * per
    spans, events = tracer.recent(), timeline.events()
    assert len({s["span_id"] for s in spans}) == len(spans) == 256
    for span in spans:
        worker, i = span["attrs"]["worker"], span["attrs"]["i"]
        assert span["name"] == f"w{worker}"
        assert span["start_ns"] == worker * 1_000_000 + i
    assert [e["seq"] for e in events] == \
        list(range(workers * per - 255, workers * per + 1))
    assert all(e["at_ns"] // 1_000_000 == e["entity"] for e in events)


def test_the_rings_keep_no_reference_a_reader_can_change():
    """Identical attrs share one stored dict; a reader mutating what it
    was handed must not reach the ring."""
    tracer = Tracer()
    for _ in range(3):
        tracer.record_since("terpd.ping", 0, ok=True)
    first = tracer.recent()[0]
    first["attrs"]["ok"] = "changed"
    assert [s["attrs"] for s in tracer.recent()] == [{"ok": True}] * 3
