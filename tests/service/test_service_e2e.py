"""End-to-end terpd: concurrent sessions, enforcement, lifecycle.

The acceptance path: start the daemon, run >= 2 concurrent client
sessions doing attach/write/psync/detach on one shared PMO, and show
(a) the sweeper force-detaches a session that exceeds its EW budget
and (b) the daemon emits a coherent metrics report.
"""

import asyncio
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.units import MIB
from repro.service.client import (
    RemoteError, SyncTerpClient, TerpClient)
from repro.service.protocol import HEADER
from repro.service.server import ServiceThread, TerpService
from tests.service.rawwire import RawWire

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class TestConcurrentSessions:
    def test_two_sessions_share_one_pmo(self, terpd):
        port = terpd.bound_port
        with SyncTerpClient(port=port, user="alice") as alice, \
                SyncTerpClient(port=port, user="bob") as bob:
            alice.create("shared", 4 * MIB, mode=0o666)
            assert alice.attach("shared")["outcome"] == "performed"
            # Second session's attach lowers to a grant (case 2):
            # EW-conscious sharing across clients, not just threads.
            assert bob.open("shared")["pmo"] >= 1
            assert bob.attach("shared")["outcome"] == "silent"
            oid = alice.pmalloc("shared", 64)
            alice.tx_begin("shared")
            alice.write(oid, b"cross-session payload")
            flushed = alice.psync("shared")
            # In-memory: exactly the one dirty data page.  Durable
            # replica mode also flushes header/allocator metadata.
            if os.environ.get("TERP_REPLICA") == "1":
                assert flushed >= 1
            else:
                assert flushed == 1
            assert bob.read(oid, 21) == b"cross-session payload"
            assert alice.detach("shared")["outcome"] == "silent"
            assert bob.detach("shared")["outcome"] in ("performed",
                                                       "silent")

    def test_concurrent_attach_write_psync_detach_loops(self, terpd):
        port = terpd.bound_port
        with SyncTerpClient(port=port) as setup:
            setup.create("loop", 4 * MIB, mode=0o666)
            oids = [setup.pmalloc("loop", 64) for _ in range(4)]
        errors = []

        def worker(idx: int) -> None:
            try:
                with SyncTerpClient(port=port,
                                    user=f"tenant{idx}") as client:
                    for round_no in range(25):
                        client.attach("loop")
                        payload = bytes([idx]) * 32
                        client.write(oids[idx], payload)
                        client.psync("loop")
                        assert client.read(oids[idx], 32) == payload
                        client.detach("loop")
            except Exception as exc:    # propagate to the test thread
                errors.append((idx, exc))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert errors == []
        with SyncTerpClient(port=port) as checker:
            report = checker.metrics()
            assert report["global"]["attaches"] == 100
            assert report["global"]["detaches"] == 100
            assert report["runtime"]["accesses"] == 200
            # No session still holds anything.
            for idx, oid in enumerate(oids):
                with pytest.raises(RemoteError):
                    checker.read(oid, 1)

    def test_pipelining_and_batching(self, terpd):
        with SyncTerpClient(port=terpd.bound_port) as client:
            client.create("pipe", MIB)
            client.attach("pipe")
            oid = client.pmalloc("pipe", 256)
            requests = [("write", {"oid": oid.pack(),
                                   "data": bytes([i]) * 8})
                        for i in range(16)]
            results = client.pipeline(requests)
            assert [r["n"] for r in results] == [8] * 16
            batched = client.batch([("read", {"oid": oid.pack(),
                                              "n": 8}),
                                    ("ping", {}),
                                    ("psync", {"name": "pipe"})])
            assert batched[0]["data"] == bytes([15]) * 8
            assert "now_ns" in batched[1]
            client.detach("pipe")

    def test_batch_error_isolated_to_its_slot(self, terpd):
        with SyncTerpClient(port=terpd.bound_port) as client:
            client.create("iso", MIB)
            responses = client.batch([("attach", {"name": "iso"}),
                                      ("ping", {})])
            assert len(responses) == 2
            with pytest.raises(RemoteError):
                client.batch([("attach", {"name": "iso"}),  # double
                              ("ping", {})])
            # The second op of the failing batch still executed: the
            # session remains usable.
            assert client.detach("iso")["outcome"] in ("performed",
                                                       "silent")


class TestPermissions:
    def test_mode_bits_gate_foreign_users(self, terpd):
        port = terpd.bound_port
        with SyncTerpClient(port=port, user="alice") as alice, \
                SyncTerpClient(port=port, user="mallory") as mallory:
            alice.create("private", MIB, mode=0o600)
            with pytest.raises(RemoteError) as err:
                mallory.attach("private")
            assert err.value.kind == "PmoError"

    def test_read_only_grant_blocks_writes(self, terpd):
        port = terpd.bound_port
        with SyncTerpClient(port=port, user="alice") as alice, \
                SyncTerpClient(port=port, user="bob") as bob:
            alice.create("ro", MIB, mode=0o644)
            alice.attach("ro")
            oid = alice.pmalloc("ro", 16)
            bob.attach("ro", access="r")
            assert bob.read(oid, 4) == b"\x00" * 4
            with pytest.raises(RemoteError) as err:
                bob.write(oid, b"nope")
            assert err.value.kind == "ProtectionFault"

    def test_destroy_requires_ownership(self, terpd):
        port = terpd.bound_port
        with SyncTerpClient(port=port, user="alice") as alice, \
                SyncTerpClient(port=port, user="bob") as bob:
            alice.create("mine", MIB, mode=0o666)
            with pytest.raises(RemoteError):
                bob.destroy("mine")
            alice.destroy("mine")
            with pytest.raises(RemoteError):
                alice.open("mine")


class TestSweeperEnforcement:
    def test_sweeper_force_detaches_expired_session(self):
        service = TerpService(port=0, session_ew_ns=30_000_000,
                              sweep_period_ns=5_000_000)
        with ServiceThread(service) as svc:
            port = svc.bound_port
            with SyncTerpClient(port=port, user="slow") as slow, \
                    SyncTerpClient(port=port, user="fast") as fast:
                slow.create("guarded", MIB, mode=0o666)
                slow.attach("guarded")
                oid = slow.pmalloc("guarded", 16)
                slow.write(oid, b"still here")
                # fast keeps cycling within budget; slow just sits on
                # its exposure window until the sweeper closes it.
                deadline = time.monotonic() + 5.0
                while slow.forced_detaches == 0:
                    assert time.monotonic() < deadline, \
                        "sweeper never force-detached"
                    fast.attach("guarded")
                    fast.detach("guarded")
                    time.sleep(0.01)
                    slow.ping()
                event = [e for e in slow.events
                         if e["event"] == "forced-detach"][0]
                assert event["pmo"] == "guarded"
                assert "budget" in event["reason"]
                # slow's grant is gone: further access faults.
                with pytest.raises(RemoteError):
                    slow.read(oid, 10)
                report = fast.metrics()
                assert report["global"]["forced_detaches"] >= 1
                assert report["global"]["sweep_runs"] >= 1
                assert report["global"]["sweep_latency"]["count"] >= 1

    def test_negotiated_budget_is_clamped_to_server_max(self, terpd):
        with SyncTerpClient(port=terpd.bound_port,
                            ew_budget_us=10 ** 12) as client:
            assert client.ew_budget_us <= 2_000_000_000 / 1_000

    def test_disconnect_mid_attach_is_cleaned_up(self):
        service = TerpService(port=0, session_ew_ns=2_000_000_000,
                              sweep_period_ns=10_000_000)
        with ServiceThread(service) as svc:
            client = SyncTerpClient(port=svc.bound_port).connect()
            client.create("orphan", MIB)
            client.attach("orphan")
            entity = client.entity_id
            client.close()            # vanish without goodbye/detach
            deadline = time.monotonic() + 5.0
            while service.lib.runtime.entity_holdings(entity):
                assert time.monotonic() < deadline, \
                    "disconnect cleanup never ran"
                time.sleep(0.01)
            assert service.metrics.disconnect_detaches >= 1
            with SyncTerpClient(port=svc.bound_port) as probe:
                assert probe.ping()["sessions"] == 1  # only the probe


class TestLifecycleAndCli:
    def test_graceful_shutdown_detaches_all_sessions(self):
        service = TerpService(port=0, session_ew_ns=2_000_000_000,
                              sweep_period_ns=50_000_000)
        thread = ServiceThread(service)
        svc = thread.start()
        client = SyncTerpClient(port=svc.bound_port).connect()
        client.create("held", MIB)
        client.attach("held")
        entity = client.entity_id
        thread.stop()
        assert service.lib.runtime.entity_holdings(entity) == []
        assert not service.engine.is_mapped(1)
        client.close()

    def test_hello_required_before_table1_ops(self, terpd):
        with RawWire(terpd.bound_port) as wire:
            response, _ = wire.exchange(1, "create",
                                        {"name": "x", "size": MIB})
            assert response.ok is False
            assert "hello" in response.error[1]

    def test_malformed_frame_disconnects_without_crash(self, terpd):
        sock = socket.create_connection(("127.0.0.1",
                                         terpd.bound_port), timeout=10)
        try:
            sock.sendall(HEADER.pack(64) + b"\xff" * 64)
            # Server drops the connection on an undecodable frame.
            assert sock.recv(1) == b""
        finally:
            sock.close()
        # ...but keeps serving everyone else.
        with SyncTerpClient(port=terpd.bound_port) as client:
            assert "now_ns" in client.ping()

    def test_unix_socket_round_trip_with_both_clients(self, tmp_path):
        """``--unix`` is a deployment address: no TCP port at all, and
        the sync and asyncio clients both do a tenant's cycle over it."""
        path = str(tmp_path / "terpd.sock")
        service = TerpService(port=None, unix_path=path)
        with ServiceThread(service) as svc:
            assert svc.bound_port is None
            with SyncTerpClient(unix_path=path) as client:
                client.create("over-unix", MIB)
                client.attach("over-unix")
                oid = client.pmalloc("over-unix", 64)
                client.write(oid, b"written by the sync client")
                client.detach("over-unix")

            async def read_back():
                async with TerpClient(unix_path=path) as client:
                    await client.attach("over-unix")
                    try:
                        return await client.read(oid, 26)
                    finally:
                        await client.detach("over-unix")

            assert asyncio.run(read_back()) == \
                b"written by the sync client"

    def test_cli_help(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + \
            os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.service", "--help"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert "terpd" in proc.stdout
        assert "--session-ew-ms" in proc.stdout

    def test_metrics_report_shape(self, terpd):
        with SyncTerpClient(port=terpd.bound_port) as client:
            client.create("shape", MIB)
            client.attach("shape")
            client.detach("shape")
            report = client.metrics()
            for key in ("requests", "sessions_opened", "ops",
                        "request_latency", "sweep_latency"):
                assert key in report["global"]
            for key in ("p50_us", "p99_us", "mean_us", "count"):
                assert key in report["global"]["request_latency"]
            assert report["session"]["attaches"] == 1
            assert report["runtime"]["attach_calls"] >= 1
            assert "case1_first_attach" in report["arch_cases"]

    def test_trace_limit_zero_is_none_and_negative_is_refused(self, terpd):
        with SyncTerpClient(port=terpd.bound_port) as client:
            client.create("lim", MIB)
            client.attach("lim")
            client.detach("lim")
            assert len(client.trace(limit=2)["audit"]) == 2
            reply = client.trace(limit=0)
            assert reply["audit"] == [] and reply["spans"] == []
            if hasattr(terpd, "supervisor"):
                return      # a router leaves refusing shards out
            with pytest.raises(RemoteError) as err:
                client.trace(limit=-5)
            assert err.value.kind == "BadRequest"
            assert "now_ns" in client.ping()
