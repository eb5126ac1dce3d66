"""Burst I/O: a pipelined burst costs one write each way.

Counts, not timings: the daemon's ``wire_frames`` / ``wire_flushes``
counters say how many response frames left in how many writes.  The
rules under test — flush when the input runs dry, before a handler
waits on a psync's group commit, past the 64 KiB mark, and on every way out
of the serve loop — each have a test here that fails with the rule
removed.
"""

import re
import socket
import time

import pytest

from repro.core.units import MIB
from repro.faults.plan import FaultPlan, FaultRule
from repro.service import protocol
from repro.service.client import SyncTerpClient
from repro.service.retry import RetryPolicy
from repro.service.server import ServiceThread, TerpService
from repro.topology import Proc
from tests.replication.test_ship_replay import data_segs_out
from tests.service.rawwire import RawWire
from tests.service.test_footprint import rss_kib


def write_burst(oid, count, first_rid=100):
    """``count`` write frames as one byte string, and their rids."""
    rids = list(range(first_rid, first_rid + count))
    return b"".join(
        protocol.encode_frame(
            protocol.request(rid, "write",
                             {"oid": oid.pack(), "data": 8}),
            bytes([rid % 256]) * 8)
        for rid in rids), rids


def prepared(port, name="burst", **hello):
    """A raw connection with a session, and an attached PMO's oid."""
    with SyncTerpClient(port=port) as admin:
        admin.create(name, MIB, mode=0o666)
        admin.attach(name)
        oid = admin.pmalloc(name, 64)
        admin.detach(name)
    wire = RawWire(port)
    wire.hello(**hello)
    assert wire.exchange(2, "attach", {"name": name})[0].ok
    return wire, oid


def test_eight_frames_in_one_segment_leave_in_one_write():
    with ServiceThread(TerpService(
            port=0, session_ew_ns=5_000_000_000)) as service:
        wire, oid = prepared(service.bound_port)
        with wire:
            frames = service.metrics.wire_frames
            flushes = service.metrics.wire_flushes
            burst, rids = write_burst(oid, 8)
            wire.sock.sendall(burst)
            for rid in rids:
                response, _ = wire.recv()
                assert response.rid == rid and response.ok
            assert service.metrics.wire_frames - frames == 8
            assert service.metrics.wire_flushes - flushes == 1
            # One at a time is still one write each.
            for rid in (200, 201):
                assert wire.exchange(rid, "ping")[0].ok
            assert service.metrics.wire_frames - frames == 10
            assert service.metrics.wire_flushes - flushes == 3
            report = wire.exchange(300, "metrics")[0].result["global"]
            # (taken while its own response was still to be written)
            assert report["wire_frames"] == \
                service.metrics.wire_frames - 1
            assert report["wire_flushes"] == \
                service.metrics.wire_flushes - 1
            text = wire.exchange(301, "prometheus")[0].result["text"]
            assert re.search(r"^terpd_wire_flushes_total \d+$", text,
                             re.M)
            assert re.search(r"^terpd_wire_frames_total \d+$", text,
                             re.M)


def served_end(front, peer):
    """The stream a front door serves ``peer``'s connection on."""
    (stream,) = [stream for stream in front._writers
                 if stream.sock.getpeername() == peer.getsockname()]
    return stream


def nodelay(sock) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


def test_a_burst_leaves_a_nodelay_socket_in_one_segment():
    """Under the counters, the socket: the daemon sets ``TCP_NODELAY``
    on every connection it accepts (a reply waits on no ACK of the
    last), and the eight responses to a pipelined burst leave in one
    data segment."""
    with ServiceThread(TerpService(
            port=0, session_ew_ns=5_000_000_000)) as service:
        wire, oid = prepared(service.bound_port)
        with wire:
            served = served_end(service.front, wire.sock)
            assert nodelay(served.sock)
            before = data_segs_out(served.sock)
            if before is None:
                pytest.skip("no tcpi_data_segs_out in this kernel")
            burst, rids = write_burst(oid, 8)
            wire.sock.sendall(burst)
            for rid in rids:
                assert wire.recv()[0].rid == rid
            assert data_segs_out(served.sock) - before == 1


def test_a_response_never_waits_behind_a_later_fsync(tmp_path):
    # [write, psync, write] in one segment, the psync's group commit
    # held in the flusher by a stall: the first write's response is
    # on the wire before the ticket completes, alone.
    stall_s = 0.4
    plan = FaultPlan(seed=1, rules=[FaultRule(
        "store.commit_stall", "stall", delay_ns=int(stall_s * 1e9))])
    plan.disarm()
    with ServiceThread(TerpService(
            port=0, session_ew_ns=5_000_000_000, faults=plan,
            commit_interval_us=0, pool_dir=tmp_path)) as service:
        wire, oid = prepared(service.bound_port)
        with wire:
            first, _ = write_burst(oid, 1, first_rid=100)
            third, _ = write_burst(oid, 1, first_rid=102)
            psync = protocol.encode_frame(
                protocol.request(101, "psync", {"name": "burst"}))
            flushes = service.metrics.wire_flushes
            plan.arm()
            started = time.monotonic()
            wire.ops[101] = "psync"     # what the raw bytes ask
            wire.sock.sendall(first + psync + third)
            response, _ = wire.recv()
            early = time.monotonic() - started
            assert response.rid == 100 and response.ok
            # The read that brought it brought nothing else: the
            # other two responses do not exist yet.
            assert wire.splitter.next_frame() is None
            assert early < stall_s
            response, _ = wire.recv()
            assert time.monotonic() - started >= stall_s
            plan.disarm()
            assert response.rid == 101
            assert response.result["flushed"] >= 1
            assert wire.recv()[0].rid == 102
            assert plan.fired("store.commit_stall")
            # Two writes for the burst: before the wait, and after.
            assert service.metrics.wire_flushes - flushes == 2
            wire.exchange(103, "detach", {"name": "burst"})


def _fault_mid_burst(rule):
    """Five creates pipelined, the third tripping ``rule``: returns
    ``(results, client, service)`` after the retry completed."""
    plan = FaultPlan(seed=1, rules=[rule])
    plan.disarm()
    service = TerpService(port=0, seed=7, faults=plan,
                          session_ew_ns=5_000_000_000)
    with ServiceThread(service) as svc:
        client = SyncTerpClient(
            port=svc.bound_port, user="alice",
            retry=RetryPolicy(base_delay_s=0.0001, seed=3))
        client.connect()
        plan.arm()
        results = client.pipeline([
            ("create", {"name": f"mid-{i}", "size": MIB})
            for i in range(5)])
        plan.disarm()
        assert plan.fired(rule.site)
        client.goodbye()
        client.close()
    return results, client, service


def test_partial_frame_mid_burst_keeps_the_responses_ahead_of_it():
    results, client, service = _fault_mid_burst(FaultRule(
        "server.partial_frame", "after", after=2, count=1))
    # A second execution of a create would have answered "exists".
    assert [r["name"] for r in results] == [
        f"mid-{i}" for i in range(5)]
    assert client.resumes == 1
    # Frames 1-2 were answered intact ahead of the torn third, so the
    # retry re-sent only 3-5: the third came from the replay cache,
    # 4-5 ran for the first time, nothing ran twice.
    assert service.metrics.replays_served == 1
    assert service.metrics.ops["create"] == 5


def test_conn_drop_mid_burst_keeps_the_responses_ahead_of_it():
    results, client, service = _fault_mid_burst(FaultRule(
        "server.conn_drop", "before", after=2, count=1))
    assert [r["name"] for r in results] == [
        f"mid-{i}" for i in range(5)]
    assert client.resumes == 1
    # The third never ran before the drop; 1-2 were answered, so
    # nothing was re-sent that had run.
    assert service.metrics.replays_served == 0
    assert service.metrics.ops["create"] == 5


def test_a_client_that_stops_reading_stalls_itself_not_the_daemon():
    # 2000 pipelined 4 KiB reads — 8 MiB of responses — from a client
    # that does not read for 200 ms.  Pending output is written at the
    # 64 KiB mark and the transport's backlog waited out, so what the
    # daemon holds stays a few reads' worth; the rest waits, unread,
    # as requests in the client's own socket.
    daemon = Proc("repro.service",
                  ["--port", "0", "--session-ew-ms", "60000"])
    try:
        port = daemon.ready()
        with SyncTerpClient(port=port) as admin:
            admin.create("slow", MIB, mode=0o666)
            admin.attach("slow")
            oid = admin.pmalloc("slow", 4096)
            admin.write(oid, b"\x5a" * 4096)
            admin.detach("slow")
        with RawWire(port, timeout=30.0) as wire:
            wire.hello()
            assert wire.exchange(2, "attach", {"name": "slow"})[0].ok

            def reads(rids):
                return b"".join(
                    protocol.encode_frame(protocol.request(
                        rid, "read", {"oid": oid.pack(), "n": 4096}))
                    for rid in rids)
            before = rss_kib(daemon.pid)
            wire.sock.sendall(reads(range(10, 2010)))
            time.sleep(0.2)
            grown = rss_kib(daemon.pid) - before
            assert grown < 3072, f"daemon grew {grown} KiB"
            for rid in range(10, 2010):
                response, sidecar = wire.recv()
                assert response.rid == rid
                assert sidecar == b"\x5a" * 4096
    finally:
        daemon.stop()
