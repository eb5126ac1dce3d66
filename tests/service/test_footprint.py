"""What a serving process carries: imports, memory over time, and a
quiet way out.

terpd's enforcement state is meant to be small and *constant*: no
numerical stack and no OpenSSL in any serving process, nothing that
grows with the number of tenant cycles served, and a shutdown that
ends every connection handler instead of leaving it to be cancelled.
"""

import gc
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import types
import zlib

import pytest

from repro.core.units import GIB, MIB
from repro.obs import AuditTimeline, Observability, Tracer
from repro.replication.applier import promote
from repro.service import protocol
from repro.service.client import SyncTerpClient
from repro.service.conn import Conn
from repro.service.server import ServiceThread, TerpService
from repro.topology import BANNERS, Proc

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


#: What a process that imports ``ssl`` or ``_hashlib`` maps: ~4.7 MiB
#: resident, of which libcrypto is 3.5.
OPENSSL = ("libcrypto", "libssl", "/_ssl.", "/_hashlib.")


def mapped_openssl(pid: int) -> list:
    with open(f"/proc/{pid}/maps") as maps:
        return sorted({line.rsplit("/", 1)[1].strip() for line in maps
                       if any(lib in line for lib in OPENSSL)})


def test_no_serving_process_maps_openssl(tmp_path):
    """Every serving process as launched — daemon, supervisor, both
    shards, router, standby — runs as a build without OpenSSL would:
    terpd speaks no TLS, and its two digests have builtins.  The import
    probe above cannot see this, since only a *run* entry point sets it
    up.  At the parent all six mapped libcrypto, libssl, ``_ssl`` and
    ``_hashlib``."""
    state = tmp_path / "cluster.json"
    procs = {
        "daemon": Proc("repro.service", ["--port", "0"]),
        "supervisor": Proc("repro.cluster", [
            "--port", "0", "--shards", "2", "--state-file", str(state)]),
        "standby": Proc("repro.replication", [
            "--pool-dir", str(tmp_path / "standby"),
            "--listen-port", "0"]),
    }
    try:
        for proc in procs.values():
            proc.ready()
        pids = {role: proc.pid for role, proc in procs.items()}
        cluster = json.loads(state.read_text())
        for kind in ("shards", "routers"):
            for child in cluster[kind]:
                pids[f"{kind[:-1]} {child['index']}"] = child["pid"]
        mapped = {role: mapped_openssl(pid) for role, pid in pids.items()}
    finally:
        codes = [proc.stop() for proc in procs.values()]
    assert len(mapped) == 6
    assert mapped == {role: [] for role in mapped}
    assert codes == [0, 0, 0]


def test_the_daemon_as_launched_loads_no_client_and_no_checker(
        monkeypatch):
    """The router needs the client; a daemon needs neither it, its retry
    policy nor the invariant checker.  At the parent the package
    ``__init__``s imported all three into every daemon."""
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
    daemon = Proc("repro.service", ["--port", "0"],
                  stderr=subprocess.PIPE)
    try:
        with SyncTerpClient(port=daemon.ready()) as client:
            client.create("probe", MIB)
            client.attach("probe")
            client.detach("probe")
    finally:
        code = daemon.stop()
        log = daemon.popen.stderr.read()
        daemon.popen.stderr.close()
    loaded = {line.rsplit("|", 1)[1].strip() for line in log.splitlines()
              if line.startswith("import time:")}
    assert code == 0
    assert "repro.service.server" in loaded
    assert loaded & {"repro.service.client", "repro.service.retry",
                     "repro.faults.invariants"} == set()


class LoggedProc(Proc):
    """A :class:`Proc` that keeps every line, not the last 50: with
    ``PYTHONPROFILEIMPORTTIME`` set and stderr joined to stdout, the
    import log and the banner sit in the order the child wrote them."""

    def _read(self) -> None:
        # Proc sets ``lines`` before its reader starts.
        self.lines = []
        super()._read()

    def imports(self) -> tuple:
        """The modules imported before the banner and after it."""
        banner = BANNERS[self.module]
        at = next(n for n, line in enumerate(self.lines)
                  if banner.search(line))
        return tuple([line.rsplit("|", 1)[1].strip() for line in part
                      if line.startswith("import time:")]
                     for part in (self.lines[:at], self.lines[at:]))


#: What only a daemon runs: the service and its sessions, connections
#: and sweeper, the observability it records into, and the event loop.
SERVING_STACK = {
    "repro.service.server", "repro.service.sessions",
    "repro.service.conn", "repro.service.sweeping", "repro.obs.audit",
    "repro.obs.registry", "repro.obs.tracing", "asyncio"}


def test_a_standby_loads_no_serving_stack_until_promoted(
        monkeypatch, tmp_path):
    """A standby applies shipped batches, and that is all it loads: the
    serving stack is imported by ``promote``.  At the parent a standby
    at its banner had loaded all of it, through the applier's and the
    settings table's imports, and read ``VmHWM`` 21.9 MiB."""
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
    standby = LoggedProc("repro.replication", [
        "--pool-dir", str(tmp_path), "--listen-port", "0"])
    try:
        port = promote("127.0.0.1", standby.ready(), 0)
        with SyncTerpClient(port=port) as client:
            assert client.ping()["now_ns"] > 0
    finally:
        code = standby.stop()
    at_banner, after = standby.imports()
    assert code == 0
    assert SERVING_STACK & set(at_banner) == set()
    assert SERVING_STACK <= set(after)


def test_the_supervisor_brings_the_daemon_its_shards_fork_with():
    """Forked shards inherit what the supervisor imported; a shard
    that imported the daemon after the fork started later."""
    probe = ("import sys, repro.cluster.supervisor\n"
             "print('repro.service.server' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def serve_a_cycle(port: int) -> None:
    """attach, 8 writes, psync, read, detach: the tenant cycle."""
    with SyncTerpClient(port=port) as client:
        client.create("cycle", MIB)
        client.attach("cycle")
        oid = client.pmalloc("cycle", 4096)
        for n in range(8):
            client.write(oid, bytes([n]) * 512)
        client.psync("cycle")
        assert client.read(oid, 512) == bytes([7]) * 512
        client.detach("cycle")


@pytest.mark.parametrize("shape", ["memory", "file", "replicated"])
def test_nothing_is_imported_on_the_serving_path(shape, monkeypatch,
                                                 tmp_path):
    """Every repro module a daemon serves with is loaded by its banner:
    a lazy import (a package ``__getattr__``, a function-local import)
    must not move one onto the first request, whose latency it would
    then carry — nor onto the shutdown drain."""
    monkeypatch.setenv("PYTHONPROFILEIMPORTTIME", "1")
    args = ["--port", "0"]
    standby = None
    if shape != "memory":
        args += ["--pool-dir", str(tmp_path / "primary")]
    if shape == "replicated":
        standby = Proc("repro.replication", [
            "--pool-dir", str(tmp_path / "standby"),
            "--listen-port", "0"])
        args += ["--replicate-to", f"127.0.0.1:{standby.ready()}"]
    daemon = LoggedProc("repro.service", args)
    try:
        serve_a_cycle(daemon.ready())
    finally:
        code = daemon.stop()
        if standby is not None:
            standby.stop()
    at_banner, after = daemon.imports()
    assert code == 0
    assert "repro.service.server" in at_banner
    assert [m for m in after if m.split(".")[0] == "repro"] == []


#: Ring owners and on-media file names: what a durable pool or cluster
#: written with OpenSSL's digests must find again without them.
PLACEMENTS = """
from pathlib import Path
from repro.cluster.ring import HashRing
from repro.pmo.store import home_file
ring = HashRing(range(4), seed=2022)
owners = [ring.owner(f"tenant-{i}") for i in range(10_000)]
files = [home_file(Path("pool"), f"tenant {i}/\u00e9").name
         for i in range(1000)]
"""


def test_no_digest_moves_without_openssl():
    scope: dict = {}
    exec(PLACEMENTS, scope)
    probe = ("import sys\n"
             "sys.modules.setdefault('_hashlib', None)\n"
             + PLACEMENTS +
             "import hashlib, json\n"
             "print(json.dumps([hashlib.sha1.__module__, owners, files]))\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    backend, owners, files = json.loads(proc.stdout)
    assert backend == "_sha1"
    assert owners == scope["owners"]
    assert files == scope["files"]
    assert len(set(owners)) == 4


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
        # Hold the PMO past its EW target until a sweep relocates it.
        runtime = service.lib.runtime
        client.attach("flat")
        deadline = time.monotonic() + 5.0
        while runtime.counters.randomizations == 0 and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        client.detach("flat")
    assert grown < 64 * 1024, f"{grown} B retained over 2000 cycles"
    monitor = runtime.monitor
    assert monitor.ew.windows() == [] and monitor.tew.windows() == []
    # A sweep relocated the PMO, and the monitor kept no instant.
    assert runtime.counters.randomizations > 0
    assert monitor.relocations(service.lib.manager.lookup("flat").pmo_id) \
        == []
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
            before = rss_kib(daemon.pid)
            for _ in range(64):
                assert client.read(oid, MIB) == b"\xa5" * MIB
            for _ in range(16):
                client.trace(limit=65536)
            grown = rss_kib(daemon.pid) - before
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
    service = getattr(terpd, "service", None)
    if service is None:
        pytest.skip("needs the in-process daemon's rings")
    with SyncTerpClient(port=terpd.port) as client:
        client.create("shape", MIB)
        client.attach("shape")
        client.detach("shape")
        reply = client.trace(limit=1000)
        audit = service.obs.audit.events(limit=1000)
        spans = service.obs.tracer.recent(limit=1000)
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


class _Writer:
    """What a connection's frames are written to: counted, never kept
    — each write's size, and the CRC of the bytes so far."""

    def __init__(self) -> None:
        self.writes = []
        self.crc = 0
        self.transport = types.SimpleNamespace(
            get_write_buffer_size=lambda: 0, is_closing=lambda: False)

    def write(self, data: bytes) -> None:
        self.writes.append(len(data))
        self.crc = zlib.crc32(data, self.crc)


def _hold_and_force(service):
    """The operator poll's rings: a full span ring and 5 000 forced
    detaches."""
    tracer, audit = service.obs.tracer, service.obs.audit
    while tracer.spans_recorded < tracer.capacity:
        tracer.record_since("terpd.attach", tracer.clock(), ok=True)
    for n in range(5000):
        at = 10 ** 12 + n * 10 ** 6
        audit.record_attach(1001 + n % 4, 7, "hold-0", at,
                            reason="performed")
        audit.record_detach(1001 + n % 4, 7, "hold-0", at + 25_000_000,
                            forced=True, reason="session EW budget")


def _served_peak(service, frames):
    """Serve ``frames`` (one read's worth) on an unstarted connection:
    ``(traced peak over the serve, writer)``."""
    writer = _Writer()
    conn = Conn(writer, lambda frames: None)
    serve = service._serve_burst(conn, iter(frames))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(StopIteration):   # nothing it awaits blocks
            serve.send(None)
        conn.flush()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, writer


def test_a_trace_read_costs_its_answer():
    """The operator's poll — ``trace(limit=16384,
    kind="forced-detach")``, as terpbench's ``sweep_hold`` sends it
    every slice — over a full span ring and 5 000 forced detaches is
    served within 0.35 × its frame's bytes of Python heap, plus one
    64 KiB chunk: the rows' column values are snapshotted, the answer
    sized, then written a chunk at a time.  Written whole from the ring
    columns, the same poll peaked at 2.37 × the frame; built as a dict
    per record and encoded three times over, at about 6.5 ×.  Behind a
    router, each shard's share of the poll is held to the same bound
    (``tests/cluster/test_burst_relay.py``)."""
    service = TerpService(port=0)
    service.now_ns = lambda: 10 ** 15      # the answer's clock, pinned
    tracer, audit = service.obs.tracer, service.obs.audit
    _hold_and_force(service)
    want = protocol.encode_frame(protocol.response(9, "trace", {
        "spans": tracer.recent(16384),
        "audit": audit.events(kind="forced-detach", limit=16384),
        "open_windows": [], "now_ns": 10 ** 15}))
    request = protocol.encode_body(protocol.request(
        9, "trace", {"limit": 16384, "kind": "forced-detach"}))
    peak, writer = _served_peak(service, [(request, b"")])
    assert len(want) > 1 << 20
    assert (sum(writer.writes), writer.crc) == \
        (len(want), zlib.crc32(want))
    assert max(writer.writes) <= protocol.READ_BYTES
    assert peak <= 0.35 * len(want) + protocol.READ_BYTES, \
        f"peak {peak} B for a {len(want)} B frame"
