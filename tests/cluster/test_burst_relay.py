"""The router's run relay: a burst for one shard is one upstream write.

An in-process router over two in-process shards, so each hop's wire
counters can be read directly: a run of consecutive single-op frames
one shard owns goes upstream as one write and comes back as one, and
a burst that alternates shards still answers in request order.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.cluster.router import TerpRouter
from repro.core.units import MIB
from repro.pmo.object_id import Oid
from repro.service import protocol
from repro.service.client import SyncTerpClient
from repro.service.ops import OP_INDEX
from repro.service.server import ServiceThread, TerpService
from tests.service.rawwire import RawWire
from tests.service.test_burst_io import write_burst
from tests.service.test_footprint import _hold_and_force, _served_peak
from tests.service.test_protocol import REVISION_5_HELLO


@pytest.fixture
def routed():
    """``(router, [shard0, shard1])``, all serving in this process."""
    threads = [ServiceThread(TerpService(
        port=0, session_ew_ns=5_000_000_000, shard_index=i,
        shard_count=2)) for i in range(2)]
    shards = [thread.start() for thread in threads]
    router = TerpRouter(
        shard_addrs=[("127.0.0.1", s.bound_port) for s in shards],
        session_ew_ns=5_000_000_000)
    loop = asyncio.new_event_loop()
    pump = threading.Thread(target=loop.run_forever, daemon=True)
    pump.start()
    asyncio.run_coroutine_threadsafe(router.start(), loop).result(10)
    yield router, shards
    asyncio.run_coroutine_threadsafe(router.stop(), loop).result(10)
    loop.call_soon_threadsafe(loop.stop)
    pump.join(10)
    loop.close()
    for thread in threads:
        thread.stop()


def pmo_on_each_shard(router, client):
    """Two attached PMOs, one per shard: ``[(shard, oid), (shard, oid)]``."""
    found = {}
    for i in range(32):
        name = f"relay-{i}"
        shard = router.ring.owner(name)
        if shard in found:
            continue
        client.create(name, MIB)
        client.attach(name)
        found[shard] = client.pmalloc(name, 64)
        if len(found) == 2:
            return sorted(found.items())
    raise AssertionError("ring never placed a PMO on both shards")


def counters(service):
    return service.metrics.wire_frames, service.metrics.wire_flushes


def test_a_one_shard_burst_is_one_write_on_every_hop(routed):
    router, shards = routed
    owner = router.ring.owner("relay")
    with RawWire(router.bound_port) as wire:
        wire.hello()
        assert wire.exchange(2, "create",
                             {"name": "relay", "size": MIB})[0].ok
        assert wire.exchange(3, "attach", {"name": "relay"})[0].ok
        oid = Oid.unpack(wire.exchange(4, "pmalloc", {
            "name": "relay", "size": 64})[0].result["oid"])
        before = [counters(s) for s in shards]
        front = (router.wire.frames.value, router.wire.flushes.value)
        wire.sock.sendall(write_burst(oid, 8)[0])
        for i in range(8):
            response, _ = wire.recv()
            assert response.rid == 100 + i and response.ok
        after = [counters(s) for s in shards]
        # The owning shard: eight response frames, one write.
        assert (after[owner][0] - before[owner][0],
                after[owner][1] - before[owner][1]) == (8, 1)
        # The other shard saw nothing of it.
        assert after[1 - owner] == before[1 - owner]
        # And the router's own hop to the client: eight, one.
        assert (router.wire.frames.value - front[0],
                router.wire.flushes.value - front[1]) == (8, 1)
        report = wire.exchange(200, "metrics")[0].result
        assert report["cluster"]["router"]["wire_frames"] == \
            router.wire.frames.value - 1
        # Shard counters sum like every other counter (the poll's
        # own response is still to be written on each shard).
        assert report["global"]["wire_frames"] == sum(
            s.metrics.wire_frames for s in shards) - len(shards)
        text = wire.exchange(201, "prometheus")[0].result["text"]
        assert 'terpd_wire_frames_total{hop="router"}' in text
        assert f'terpd_wire_frames_total{{shard="{owner}"}}' in text


def test_a_burst_alternating_shards_answers_in_request_order(routed):
    router, shards = routed
    with SyncTerpClient(port=router.bound_port) as client:
        (_, left), (_, right) = pmo_on_each_shard(router, client)
        # a b a b | a a b b: runs of one, then runs of two, and a
        # fan-out op (the router answers it) wedged inside a run.
        oids = [left, right, left, right, left, left, right, right]
        requests = []
        for i, oid in enumerate(oids):
            requests.append(("write_u64", {"oid": oid.pack(),
                                           "value": 1000 + i}))
            requests.append(("read_u64", {"oid": oid.pack()}))
        requests.insert(11, ("ping", {}))
        results = client.pipeline(requests)
        assert "now_ns" in results.pop(11)
        # Every read sees the write just ahead of it: responses in
        # request order, requests executed in request order per shard.
        assert [r["value"] for r in results[1::2]] == [
            1000 + i for i in range(8)]
        assert all(r == {"written": True} for r in results[0::2])


def test_a_client_that_stops_reading_stalls_the_shard_too(routed):
    # 1000 pipelined 64 KiB reads through the router, from a client
    # that does not read: the router queues each response as it
    # arrives and, past the 64 KiB mark, waits for the client before
    # taking the next one off the shard — so the shard's own
    # backpressure holds it too, and neither process piles up the
    # 64 MiB.  (What does get through sits in kernel socket buffers.)
    router, shards = routed
    owner = router.ring.owner("big")
    with RawWire(router.bound_port, timeout=60.0) as wire:
        wire.hello()
        assert wire.exchange(2, "create",
                             {"name": "big", "size": MIB})[0].ok
        assert wire.exchange(3, "attach", {"name": "big"})[0].ok
        oid = wire.exchange(4, "pmalloc", {
            "name": "big", "size": 65536})[0].result["oid"]
        assert wire.exchange(5, "write", {"oid": oid, "data": 65536},
                             b"\xc3" * 65536)[0].ok
        before = shards[owner].metrics.wire_frames
        wire.sock.sendall(b"".join(
            protocol.encode_frame(protocol.request(
                rid, "read", {"oid": oid, "n": 65536}))
            for rid in range(10, 1010)))
        time.sleep(0.3)
        written = shards[owner].metrics.wire_frames - before
        assert written < 600, f"shard wrote {written} of 1000 unread"
        for rid in range(10, 1010):
            response, sidecar = wire.recv()
            assert response.rid == rid
            assert sidecar == b"\xc3" * 65536


def test_a_refused_batch_item_still_takes_its_bytes(routed):
    """Regression: the router's batch split skipped a refused item's
    sidecar bytes, so the next item's shard was sent them — ``AAAA``
    where ``BBBB`` was sent."""
    router, _ = routed
    with RawWire(router.bound_port) as wire:
        wire.hello()
        assert wire.exchange(2, "create",
                             {"name": "skip", "size": MIB})[0].ok
        oid = wire.exchange(3, "pmalloc", {
            "name": "skip", "size": 64})[0].result["oid"]
        assert wire.exchange(4, "attach", {"name": "skip"})[0].ok
        wire.send([[10, OP_INDEX["write"], oid, 4, "extra"],
                   protocol.request(11, "write", {
                       "oid": oid, "data": 4})], b"AAAABBBB")
        (refused, written), _ = wire.recv()
        assert refused.error[0] == "BadRequest"
        assert written.result == {"n": 4}
        assert wire.exchange(12, "read", {"oid": oid, "n": 4})[1] == \
            b"BBBB"
        # A value the row does not declare is refused by the router
        # itself, alone and inside a batch.
        wire.send([13, OP_INDEX["attach"], "skip", "r", "extra"])
        assert wire.recv()[0].error[0] == "BadRequest"
        wire.send([[14, OP_INDEX["detach"], "skip", "extra"],
                   protocol.request(15, "detach", {"name": "skip"})])
        (refused, detached), _ = wire.recv()
        assert refused.error[0] == "BadRequest" and detached.ok


def test_an_unreadable_count_refuses_the_batchs_later_writes(routed):
    """A count is found by its item's row: after an unknown op
    carrying 64 bytes, where the write's bytes start is not known —
    the router refuses the write rather than send a shard bytes off a
    misaligned cursor (``AAAA…`` where ``BBBB`` was meant), and the
    pool keeps what it held."""
    router, _ = routed
    with RawWire(router.bound_port) as wire:
        wire.hello()
        assert wire.exchange(2, "create",
                             {"name": "lost", "size": MIB})[0].ok
        oid = wire.exchange(3, "pmalloc", {
            "name": "lost", "size": 64})[0].result["oid"]
        assert wire.exchange(4, "attach", {"name": "lost"})[0].ok
        assert wire.exchange(5, "write", {"oid": oid, "data": 4},
                             b"ZZZZ")[0].ok
        wire.send([[10, len(OP_INDEX), oid, 64],
                   protocol.request(11, "ping"),
                   protocol.request(12, "write", {
                       "oid": oid, "data": 4})], b"A" * 64 + b"BBBB")
        (refused, pong, lost), _ = wire.recv()
        assert refused.error == ("WireError",
                                 f"unknown op {len(OP_INDEX)}")
        assert pong.ok
        kind, message = lost.error
        assert kind == "WireError" and \
            message.startswith("sidecar cursor lost"), message
        assert wire.exchange(13, "read", {"oid": oid, "n": 4})[1] == \
            b"ZZZZ"


def test_a_revision_5_peer_is_dropped_unanswered(routed):
    """The router reads one framing, as a daemon does: a revision-5
    hello's length word is a head announcing an empty body, so the
    connection is dropped — no session bound here, nothing sent on to
    a shard — and the router serves on."""
    router, shards = routed
    with socket.create_connection(("127.0.0.1", router.bound_port),
                                  timeout=10) as sock:
        sock.sendall(REVISION_5_HELLO)
        assert sock.recv(1) == b""
    assert not list(router.registry)
    assert [shard.metrics.ops.get("hello", 0) for shard in shards] == \
        [0, 0]
    with RawWire(router.bound_port) as wire:
        assert wire.hello()["version"] == protocol.PROTOCOL_VERSION


def test_a_revision_4_frame_is_refused_by_its_version(routed):
    """The router refuses an op sent by name as a daemon does: a
    revision-4 ``hello`` by the version it offers, and the connection
    stays usable for a current one."""
    router, _ = routed
    with RawWire(router.bound_port) as wire:
        wire.send([1, "hello", 4, "old"])
        kind, message = wire.recv()[0].error
        assert kind == "TerpError" and \
            message.startswith("protocol version 4 unsupported"), message
        assert wire.hello(rid=2)["version"] == protocol.PROTOCOL_VERSION


def test_a_cluster_trace_costs_each_shard_its_answer(routed):
    """The operator's poll of
    ``tests/service/test_footprint.py::test_a_trace_read_costs_its_answer``
    behind a router: each shard is asked with a lone ``trace`` — its
    answer carries the clock the router orders events by — so it
    streams that answer as to a direct client, within 0.35 × the frame
    plus one chunk.  Asked in one batch with a ``ping`` (for that
    clock), each shard joined its whole answer: one 1.4 MB write."""
    router, shards = routed
    asked = [[], []]
    for shard, frames in zip(shards, asked):
        _hold_and_force(shard)

        def recording(conn, burst, serve=shard.front._serve_burst,
                      frames=frames):
            burst = list(burst)
            frames += burst
            return serve(conn, iter(burst))
        shard.front._serve_burst = recording
    with SyncTerpClient(port=router.bound_port) as client:
        answer = client.trace(limit=16384, kind="forced-detach")
    assert len(answer["audit"]) == 2 * 5000
    for shard, frames in zip(shards, asked):
        polls = [frame for frame in frames if protocol.head(
            protocol.decode_frame(frame[0]))[1] == "trace"]
        assert len(polls) == 1, polls
        peak, writer = _served_peak(shard, polls)
        assert sum(writer.writes) > 1 << 20
        assert max(writer.writes) <= protocol.READ_BYTES
        assert peak <= 0.35 * sum(writer.writes) + protocol.READ_BYTES, \
            f"peak {peak} B for a {sum(writer.writes)} B frame"
