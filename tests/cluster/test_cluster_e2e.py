"""End-to-end cluster: unmodified clients against N shards + router.

The module-scoped cluster serves the read-mostly tests; lifecycle
tests that assert exact counters or kill shards build their own.
"""

import os
import socket
import tempfile
import time

import pytest

from repro.cluster import ClusterSupervisor
from repro.cluster import supervisor as supervisor_module
from repro.cluster.supervisor import MAX_RESTARTS
from repro.service.client import (
    RemoteError, SyncTerpClient)
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.retry import RetryPolicy
from tests.service.rawwire import RawWire

MIB = 1 << 20


@pytest.fixture(scope="module")
def cluster():
    supervisor = ClusterSupervisor(
        shards=2, session_ew_ns=2_000_000_000,
        sweep_period_ns=50_000_000)
    supervisor.start()
    yield supervisor
    supervisor.stop()


@pytest.fixture
def client(cluster):
    with SyncTerpClient(port=cluster.front_port) as cli:
        yield cli


def _detached_ok(exc: RemoteError) -> bool:
    return ("not attached" in str(exc)
            or "Access.NONE" in str(exc))


class TestShardedOps:
    def test_ops_span_both_shards(self, client):
        pools = set()
        for i in range(8):
            name = f"span-{i}"
            client.create(name, MIB)
            client.attach(name)
            oid = client.pmalloc(name, 64)
            pools.add(oid.pool_id)
            n = client.write(oid, b"payload-%d" % i)
            assert client.read(oid, n) == b"payload-%d" % i
            client.psync(name)
            client.detach(name)
        # pmo_id residue classes prove both shards served writes:
        # shard i of 2 only mints ids with (id - 1) % 2 == i.
        assert {(p - 1) % 2 for p in pools} == {0, 1}

    def test_name_ops_stay_on_one_shard(self, client):
        client.create("sticky", MIB)
        client.attach("sticky")
        first = client.pmalloc("sticky", 16)
        second = client.pmalloc("sticky", 16)
        assert first.pool_id == second.pool_id
        client.detach("sticky")

    def test_errors_relay_typed(self, client):
        with pytest.raises(RemoteError) as err:
            client.attach("never-created")
        assert "never-created" in str(err.value)

    def test_oid_routes_back_to_owner_without_name(self, client):
        client.create("roam", MIB)
        client.attach("roam")
        oid = client.pmalloc("roam", 8)
        client.write_u64(oid, 7171)
        # oid-addressed ops carry no name; the Oid's pool id alone
        # must find the owning shard.
        assert client.read_u64(oid) == 7171
        client.detach("roam")


class TestBatchSplitMerge:
    def test_batch_spanning_all_shards_keeps_item_order(self, client):
        oids = []
        for i in range(6):
            name = f"batch-{i}"
            client.create(name, MIB)
            client.attach(name)
            oid = client.pmalloc(name, 16)
            client.write(oid, bytes([i]) * 16)
            oids.append(oid)
        assert {(o.pool_id - 1) % 2 for o in oids} == {0, 1}
        # One batch, items interleaved across shards, binary
        # responses re-merged with their sidecar slices in order.
        results = client.batch([("read", {"oid": o.pack(), "n": 16})
                                for o in oids])
        for i, result in enumerate(results):
            assert result["data"] == bytes([i]) * 16, (i, result)
        for i in range(6):
            client.detach(f"batch-{i}")

    def test_one_item_failing_mid_batch_stays_in_its_slot(
            self, client):
        client.create("bat-ok", MIB)
        client.attach("bat-ok")
        oid = client.pmalloc("bat-ok", 8)
        client.write_u64(oid, 41)
        # The middle item attaches a PMO that does not exist: its
        # shard answers a typed error in that slot.  The client's
        # batch() raises at the bad slot, but the items around it
        # still executed — verified through their side effects.
        with pytest.raises(RemoteError) as err:
            client.batch([
                ("write_u64", {"oid": oid.pack(), "value": 42}),
                ("attach", {"name": "no-such-pmo"}),
                ("write_u64", {"oid": oid.pack(), "value": 43}),
            ])
        assert "no-such-pmo" in str(err.value)
        assert client.read_u64(oid) == 43
        client.detach("bat-ok")

    def test_hello_inside_batch_is_rejected_in_place(self, client):
        with pytest.raises(RemoteError) as err:
            client.batch([
                ("ping", {}),
                ("hello", {"user": "smuggled"}),
            ])
        assert "standalone" in str(err.value)


class TestObservabilityFanout:
    def test_metrics_aggregate_exact_counts(self):
        # Fresh cluster: the counters must add up across shards
        # exactly, which a shared module cluster cannot promise.
        with ClusterSupervisor(shards=2,
                               session_ew_ns=2_000_000_000,
                               sweep_period_ns=50_000_000) as sup:
            with SyncTerpClient(port=sup.front_port) as cli:
                for i in range(10):
                    name = f"m-{i}"
                    cli.create(name, MIB)
                    cli.attach(name)
                    cli.detach(name)
                merged = cli.metrics()
                assert merged["global"]["attaches"] == 10
                assert merged["global"]["detaches"] == 10
                assert merged["sessions"] == 1
                cluster_part = merged["cluster"]
                assert cluster_part["shards"] == 2
                per_shard = cluster_part["per_shard_requests"]
                assert set(per_shard) == {"0", "1"}
                assert all(v > 0 for v in per_shard.values())
                assert merged["global"]["request_latency"][
                    "count"] > 0

    def test_merged_silent_percent_is_weighted_not_summed(self, cluster):
        # Two sessions overlapping on PMOs of both shards: the second
        # attach of each pair is silent on whichever shard owns it.
        with SyncTerpClient(port=cluster.front_port, user="a") as a, \
                SyncTerpClient(port=cluster.front_port, user="b") as b:
            pools = set()
            for i in range(8):
                name = f"overlap-{i}"
                a.create(name, MIB, mode=0o666)
                a.attach(name)
                pools.add(a.pmalloc(name, 8).pool_id)
                b.attach(name)
                b.detach(name)
                a.detach(name)
            assert {(p - 1) % 2 for p in pools} == {0, 1}
            merged = a.metrics()["runtime"]
        shards = []
        for port in cluster.shard_ports:
            with SyncTerpClient(port=port) as direct:
                shards.append(direct.call("metrics")["runtime"])
        calls = [s["attach_calls"] + s["detach_calls"] for s in shards]
        silent = sum(s["silent_percent"] * c / 100
                     for s, c in zip(shards, calls))
        assert all(s["silent_percent"] > 0 for s in shards)
        assert merged["attach_calls"] + merged["detach_calls"] == \
            sum(calls)
        assert merged["silent_percent"] == pytest.approx(
            100 * silent / sum(calls))
        assert merged["silent_percent"] <= 100

    def test_prometheus_is_labelled_per_shard(self, client):
        text = client.prometheus()
        assert 'shard="0"' in text
        assert 'shard="1"' in text

    def test_ping_and_trace(self, client):
        pong = client.ping()
        assert pong["sessions"] >= 1
        traced = client.trace(limit=5)
        assert isinstance(traced["spans"], list)
        # audit events are tagged with their source shard.
        assert all("shard" in e for e in traced["audit"])

    def test_metrics_shard_field_on_direct_dump(self, cluster):
        # Talking to a shard directly (not through the router) shows
        # its cluster identity.
        port = cluster.shard_ports[1]
        with SyncTerpClient(port=port) as direct:
            report = direct.call("metrics")
            assert report["shard"] == 1


class TestProtocolVersions:
    def test_v1_hello_is_rejected_with_typed_error(self, cluster):
        # The router's hello is the daemon's (one SessionRegistry
        # method): no "version" (a v1 client) or any revision but 3
        # is refused typed, and so is a v2 client's object frame; the
        # connection stays usable.
        with RawWire(cluster.front_port) as wire:
            for rid, offer in enumerate(({}, {"version": 1},
                                         {"version": 2}), start=1):
                response, _ = wire.exchange(
                    rid, "hello", dict(offer, user="old"))
                assert response.rid == rid
                kind, message = response.error
                assert kind == "TerpError"
                assert (f"protocol version {offer.get('version')} "
                        "unsupported") in message
            wire.send({"id": 4, "op": "hello",
                       "args": {"user": "old", "version": 2}})
            kind, message = wire.recv()[0].error
            assert kind == "TerpError" and "unsupported" in message
            assert wire.exchange(5, "hello", {
                "user": "new", "version": PROTOCOL_VERSION})[0].ok

    def test_v2_negotiated_through_router(self, client):
        assert client.protocol_version == PROTOCOL_VERSION

    def test_repl_status_fans_out_per_shard(self, client):
        # Declared fan-out in the op table: one status per shard,
        # not the session's home shard answering for everyone.
        status = client.repl_status()
        assert set(status["shards"]) == {"0", "1"}
        assert status["enabled"] is False
        assert status["unreachable"] == 0


class TestSessionLifecycle:
    def test_goodbye_releases_across_shards(self, cluster):
        cli = SyncTerpClient(port=cluster.front_port).connect()
        held = []
        for i in range(4):
            name = f"bye-{i}"
            cli.create(name, MIB)
            cli.attach(name)
            held.append(cli.pmalloc(name, 8).pool_id)
        assert {(p - 1) % 2 for p in held} == {0, 1}
        result = cli.goodbye()
        assert result["released"] == 4
        cli.close()

    def test_second_hello_rejected(self, cluster):
        with SyncTerpClient(port=cluster.front_port) as cli:
            with pytest.raises(RemoteError) as err:
                cli.call("hello", user="again")
            assert "already has a session" in str(err.value)


class TestShardDeathAndRecovery:
    def test_kill_one_shard_retry_recovers(self):
        tmp = tempfile.mkdtemp(prefix="terpd-cluster-test-")
        retry = RetryPolicy(max_retries=10, base_delay_s=0.01,
                            max_delay_s=0.25, seed=3)
        with ClusterSupervisor(shards=2, pool_dir=tmp,
                               session_ew_ns=2_000_000_000,
                               sweep_period_ns=50_000_000) as sup:
            cli = SyncTerpClient(port=sup.front_port,
                                 retry=retry).connect()
            bystander = SyncTerpClient(port=sup.front_port,
                                       retry=retry).connect()
            oids = {}
            for i in range(6):
                name = f"kill-{i}"
                cli.create(name, MIB)
                cli.attach(name)
                oid = cli.pmalloc(name, 32)
                cli.write(oid, b"durable-%d" % i)
                cli.psync(name)
                oids[name] = oid
            victim = 0
            survivor = next(
                n for n, o in oids.items()
                if (o.pool_id - 1) % 2 != victim)
            bystander.open(survivor, access="r")
            bystander.attach(survivor, access="r")
            sup.kill_shard(victim)
            # The client rides the typed ConnectionLost retry path;
            # its windows were all force-closed (temporal protection
            # does not wait for a resume), so it re-attaches.
            reattached = 0
            for name, oid in oids.items():
                try:
                    cli.read(oid, 8)
                except RemoteError as exc:
                    assert _detached_ok(exc), exc
                    cli.attach(name)
                    reattached += 1
            assert reattached > 0
            assert cli.resumes >= 1
            # A client that never touched the victim keeps its
            # window: the survivor shard saw no restart.
            assert bystander.read(oids[survivor], 8) == b"durable-"
            assert sup.wait_for_shard(victim)
            time.sleep(0.1)
            # Durable warm restart: committed bytes survive SIGKILL.
            for i in range(6):
                assert cli.read(oids[f"kill-{i}"], 9) == \
                    b"durable-%d" % i
            merged = cli.metrics()
            assert merged["global"]["restarts_recovered"] >= 1
            assert sup.state()["shards"][victim]["restarts"] == 1
            cli.goodbye()
            bystander.goodbye()
            cli.close()
            bystander.close()


    def test_wait_for_shard_straight_after_kill_waits_for_the_restart(
            self, monkeypatch):
        """``kill_shard`` reaps what it killed, so the wait cannot
        return on the strength of the dead process still reading as
        alive: twenty times over, what it returns for is a new pid."""
        monkeypatch.setattr(supervisor_module, "MONITOR_PERIOD_S", 0.02)
        with ClusterSupervisor(shards=4) as sup:
            for round_ in range(MAX_RESTARTS):
                for index in range(4):
                    dead = sup.kill_shard(index)
                    assert sup.wait_for_shard(index)
                    assert sup.shard_pid(index) != dead
                    assert sup.state()["shards"][index]["restarts"] == \
                        round_ + 1


class TestReplicasAndRouters:
    """The two ``ClusterConfig`` shapes nothing else starts."""

    def test_a_killed_shard_is_promoted_from_its_standby(self, tmp_path):
        retry = RetryPolicy(max_retries=10, base_delay_s=0.01,
                            max_delay_s=0.25, seed=3)
        with ClusterSupervisor(shards=2, pool_dir=str(tmp_path),
                               replicas=True,
                               session_ew_ns=2_000_000_000,
                               sweep_period_ns=50_000_000) as sup, \
                SyncTerpClient(port=sup.front_port,
                               retry=retry) as cli:
            written = {}
            while {(oid.pool_id - 1) % 2
                   for oid, _ in written.values()} != {0, 1}:
                name = f"mirrored-{len(written)}"
                cli.create(name, MIB)
                cli.attach(name)
                oid = cli.pmalloc(name, 32)
                data = b"acked-%d" % len(written)
                cli.write(oid, data)
                cli.psync(name)
                cli.detach(name)
                written[name] = (oid, data)
            standby_pid = sup.state()["standbys"][0]["pid"]
            dead = sup.kill_shard(0)
            assert sup.wait_for_shard(0)
            state = sup.state()
            assert sup.promotions == state["promotions"] == 1
            # The standby *process* is the shard now, on the shard's
            # port, and a replacement standby took its place.
            assert state["shards"][0]["pid"] == standby_pid
            replacement = state["standbys"][0]
            assert replacement["pid"] not in (None, standby_pid, dead)
            # Zero acknowledged-write loss, on both shards.
            for name, (oid, data) in written.items():
                cli.attach(name)
                assert cli.read(oid, len(data)) == data
                cli.detach(name)
            # The promoted shard ships to the replacement, semi-sync.
            name, (oid, _) = next(
                item for item in written.items()
                if (item[1][0].pool_id - 1) % 2 == 0)
            cli.attach(name)
            cli.write(oid, b"after")
            cli.psync(name)
            cli.detach(name)
            link = cli.repl_status()["shards"]["0"]
            assert link["target"] == f"127.0.0.1:{replacement['port']}"
            assert link["connected"] and link["lag"] == 0
            assert link["acked"] == link["shipped"] >= 1

    def test_two_routers_share_the_front_port(self):
        with ClusterSupervisor(shards=2, routers=2) as sup:
            routers = sup.state()["routers"]
            assert [r["port"] for r in routers] == [sup.front_port] * 2
            assert len({r["pid"] for r in routers}) == 2
            for router in routers:
                os.kill(router["pid"], 0)        # alive
            # The kernel spreads accepts over both; whichever router a
            # connection lands on serves it.
            for _ in range(8):
                with SyncTerpClient(port=sup.front_port) as cli:
                    assert "now_ns" in cli.ping()


class TestStartFailure:
    def test_a_start_that_fails_part_way_stops_what_it_started(self):
        """With the front port taken, both shards come up and the
        router does not; nobody holds a started supervisor to stop, so
        ``start`` itself must not leave the shards behind."""
        with socket.socket() as squatter:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen(1)
            supervisor = ClusterSupervisor(
                shards=2, port=squatter.getsockname()[1])
            with pytest.raises(RuntimeError, match="router 0 failed"):
                supervisor.start()
        pids = [supervisor.shard_pid(i) for i in range(2)]
        assert all(pids)
        for pid in pids:
            # Reaped children: the pid no longer names a process.
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
