"""What a serving process carries: imports, memory over time, and a
quiet way out.

terpd's enforcement state is meant to be small and *constant*: no
numerical stack in any serving process, nothing that grows with the
number of tenant cycles served, and a shutdown that ends every
connection handler instead of leaving it to be cancelled.
"""

import gc
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
import types

import pytest

from repro.core.units import GIB, MIB
from repro.obs import AuditTimeline, Observability, Tracer
from repro.service.client import SyncTerpClient
from repro.service.server import ServiceThread, TerpService
from repro.topology import Proc

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def rss_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        return int(re.search(r"VmRSS:\s+(\d+) kB", status.read())[1])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + \
        os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_serving_entry_points_import_no_numpy_and_no_simulator():
    """numpy alone is ~16 MiB resident per process; every daemon,
    shard, router, supervisor and standby would pay it.  The harness
    side — the topology vocabulary and the chaos engine over it — is
    not a serving process's to import either (``repro.faults.plan``
    is: the daemon fires its sites)."""
    probe = (
        "import sys\n"
        "import repro.service.__main__, repro.cluster.__main__, "
        "repro.replication.__main__\n"
        "heavy = ('numpy', 'repro.sim', 'repro.eval', "
        "'repro.workloads', 'repro.compiler', 'repro.security', "
        "'repro.topology', 'repro.faults.chaos')\n"
        "print(sorted(m for m in sys.modules if m in heavy "
        "or m.startswith(tuple(h + '.' for h in heavy))))\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module, extra, hang_up", [
    ("repro.service", [], False),
    ("repro.cluster", ["--shards", "1"], False),
    # Clients that hung up a moment ago: their handlers are still
    # tearing down (closing upstreams, waiting out the socket close).
    ("repro.service", [], True),
    ("repro.cluster", ["--shards", "2"], True),
])
def test_sigterm_with_a_client_connected_exits_quietly(module, extra,
                                                       hang_up):
    """Every connection's serve loop must end on its own when the
    service stops — also one already in teardown, which must still be
    found and waited for; left to ``asyncio.run`` it is cancelled and
    Python 3.11 prints a traceback from the stream callback."""
    proc = Proc(module, ["--port", "0", *extra],
                stderr=subprocess.PIPE)
    clients = []
    try:
        port = proc.ready()
        for n in range(2):
            clients.append(SyncTerpClient(port=port).connect())
            for i in range(4):          # enough names to land everywhere
                clients[n].create(f"quiet-{n}-{i}", MIB)
        if hang_up:
            for client in clients:
                client.close()
        returncode = proc.stop()           # SIGTERM, reaped
        stderr = proc.popen.stderr.read()
    finally:
        for client in clients:
            client.close()
        proc.stop()
        proc.popen.stderr.close()
    assert returncode == 0
    assert "Traceback" not in stderr, stderr


@pytest.fixture
def small_buffers_service():
    """A daemon whose bounded buffers all fill within the warm-up, so
    growth seen afterwards is growth, not a buffer still filling: the
    two rings and the placement region (each slot ever used keeps one
    intermediate page-table node).  The latency histograms need no
    shrinking: their size is fixed at construction."""
    obs = Observability(trace_capacity=64, audit_capacity=64)
    service = TerpService(port=0, obs=obs, session_ew_ns=2_000_000_000,
                          sweep_period_ns=50_000_000)
    service.lib.runtime.space.REGION_END = 4 * GIB
    thread = ServiceThread(service)
    yield thread.start()
    thread.stop()


def test_memory_is_flat_over_tenant_cycles(small_buffers_service):
    service = small_buffers_service
    with SyncTerpClient(port=service.bound_port) as client:
        client.create("flat", 4 * MIB)
        client.attach("flat")
        oid = client.pmalloc("flat", 64)
        client.detach("flat")
        cycle = [("attach", {"name": "flat"}),
                 ("write", {"oid": oid.pack(), "data": b"x" * 64}),
                 ("detach", {"name": "flat"})]

        def run(cycles: int) -> int:
            for _ in range(cycles):
                client.pipeline(cycle)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            before = run(500)
            grown = run(2000) - before
        finally:
            tracemalloc.stop()
    assert grown < 64 * 1024, f"{grown} B retained over 2000 cycles"
    monitor = service.lib.runtime.monitor
    assert monitor.ew.windows() == [] and monitor.tew.windows() == []
    assert service.obs.audit.summary()["windows"] >= 2500


def traced_bytes(fill) -> int:
    """What the object ``fill()`` returns holds, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = fill()                   # noqa: F841 -- alive while read
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_ring_bytes_per_record():
    """Both rings filled to their default capacity with the daemon's
    mix — an attach and a detach per tenant cycle, a sweep closing a
    window every eighth, a request span per op — cost a few machine
    words per record.  The rings of flat tuples they replaced held 249 B
    per audit event and 385 B per span."""
    clock = iter(range(10 ** 12, 10 ** 13, 997))

    def audit():
        timeline = AuditTimeline()
        for cycle in itertools.count():
            entity, pmo_id = 1001 + cycle % 4, 7 + cycle % 3
            name = f"tenant-{pmo_id}"
            timeline.record_attach(entity, pmo_id, name, next(clock),
                                   reason="performed")
            timeline.record_detach(entity, pmo_id, name, next(clock),
                                   reason="performed")
            if cycle % 8 == 7:
                timeline.record_sweep(next(clock), closed=1,
                                      duration_ns=next(clock) % 99_991)
            if timeline.events_recorded >= timeline.capacity:
                return timeline

    def spans():
        tracer = Tracer()
        for cycle in itertools.count():
            for op in ("attach", "write", "read", "detach"):
                tracer.record_since(f"terpd.{op}", tracer.clock(),
                                    ok=True)
            if cycle % 8 == 7:
                with tracer.span("terpd.sweep") as span:
                    tracer.record_since("engine.sweep", tracer.clock(),
                                        decisions=1)
                    span.set("forced", 0)
                    span.set("engine_closed", 1)
            if tracer.spans_recorded >= tracer.capacity:
                return tracer

    per_event = traced_bytes(audit) / 65536
    per_span = traced_bytes(spans) / 4096
    assert per_event <= 48, f"{per_event:.1f} B per audit event"
    assert per_span <= 64, f"{per_span:.1f} B per span"


def test_large_reads_are_not_pinned_by_the_daemon():
    """One tenant, a real daemon: 64 × ``read(oid, 1 MiB)`` then 16 ×
    ``trace(limit=65536)`` over a 16 384-event audit ring (a quarter
    of its capacity: filling it takes this host 4 s) move ``VmRSS`` by
    less than 8 MiB.  Fails at the parent of the PR that stopped
    caching ``readonly`` responses for replay: there the reads alone
    add 61 MiB and the traces 49 MiB, held until the session closes."""
    daemon = Proc("repro.service",
                  ["--port", "0", "--session-ew-ms", "60000"])
    try:
        with SyncTerpClient(port=daemon.ready()) as client:
            client.create("big", 4 * MIB)
            client.attach("big")
            oid = client.pmalloc("big", MIB)
            client.write(oid, b"\xa5" * MIB)
            client.detach("big")
            for _ in range(32):
                client.batch([("attach", {"name": "big"}),
                              ("detach", {"name": "big"})] * 256)
            client.attach("big")
            # One of each first: what serving them costs transiently
            # is the allocator's to keep, and not what is measured.
            client.read(oid, MIB)
            assert len(client.trace(limit=65536)["audit"]) > 16384
            before = rss_kib(daemon.popen.pid)
            for _ in range(64):
                assert client.read(oid, MIB) == b"\xa5" * MIB
            for _ in range(16):
                client.trace(limit=65536)
            grown = rss_kib(daemon.popen.pid) - before
            client.detach("big")
    finally:
        daemon.stop()
    assert grown < 8 * 1024, f"daemon grew {grown} KiB"


def held_bytes(root) -> int:
    """Bytes of binary data reachable from ``root`` through instances
    and containers (not through its classes, functions or modules)."""
    seen, stack, total = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (
                type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray, memoryview)):
            total += len(obj)
        stack.extend(gc.get_referents(obj))
    return total


def test_a_session_keeps_no_pmo_bytes_past_detach():
    """Resume restores who you were, never what you held: after
    ``detach`` nothing reachable from the session is PMO contents (at
    the parent of the same PR: the 8 × 64 KiB just read, and they
    outlived a forced detach and the resume linger too)."""
    with ServiceThread(TerpService(port=0)) as service, \
            SyncTerpClient(port=service.bound_port) as client:
        session = service.sessions.find(client.session_id)
        client.create("held", MIB)
        client.attach("held")
        oid = client.pmalloc("held", 64 * 1024)
        client.write(oid, b"\x5a" * 64 * 1024)
        for _ in range(8):
            client.read(oid, 64 * 1024)
        client.detach("held")
        # What is left is small mutating-op bodies, nothing of 4 KiB.
        assert len(session.replay) >= 4
        assert held_bytes(session) < 4096


def test_trace_op_carries_the_rings_records_verbatim(terpd):
    """JSON keeps key order, so the reply must equal — keys, order,
    values — what the daemon's own read paths return."""
    if not hasattr(terpd, "obs"):
        pytest.skip("needs the in-process daemon's rings")
    with SyncTerpClient(port=terpd.bound_port) as client:
        client.create("shape", MIB)
        client.attach("shape")
        client.detach("shape")
        reply = client.trace(limit=1000)
        audit = terpd.obs.audit.events(limit=1000)
        spans = terpd.obs.tracer.recent(limit=1000)
    assert [e["kind"] for e in reply["audit"]][-2:] == \
        ["attach", "detach"]
    assert reply["audit"] == audit[:len(reply["audit"])]
    assert [list(e) for e in reply["audit"]] == \
        [list(e) for e in audit[:len(reply["audit"])]]
    by_id = {s["span_id"]: s for s in spans}
    assert reply["spans"]
    for span in reply["spans"]:
        assert span == by_id[span["span_id"]]
        assert list(span) == list(by_id[span["span_id"]])
