"""A waiting psync parks no thread: the retired batch wakes the loop.

The daemon awaits a group-commit ticket through the ticket's done
callback, which the flusher thread runs as it retires the batch and
which resolves a future on the event loop.  No default-executor thread
is parked per psync in flight, and the ways a wait can end — retired,
failed, the daemon stopped or crashed under it, its loop gone — each
have a test here.
"""

import asyncio
import threading
import time

import pytest

from repro.core.errors import PmoError
from repro.core.units import MIB
from repro.faults.plan import FaultPlan, FaultRule
from repro.pmo.store import CommitTicket, PmoStore
from repro.service import protocol
from repro.service.client import (
    ConnectionLost, SyncTerpClient, TerpClient)
from repro.service.retry import RetryPolicy
from repro.service.server import ServiceThread, TerpService, _retired
from tests.service.rawwire import RawWire

SESSIONS = 32


def new_executor_threads(before):
    """Default-executor workers (``asyncio_N``) started since
    ``before``."""
    return [thread.name for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("asyncio_")]


async def psync_burst(port, sessions):
    """``sessions`` tenants, each with a dirty PMO of its own (written
    and detached: more are dirty than can be attached at once), psync
    at once; returns their flushed counts."""
    clients = [TerpClient(port=port, user=f"t{i}") for i in range(sessions)]
    for i, client in enumerate(clients):
        await client.connect()
        await client.create(f"p{i}", MIB)
        await client.attach(f"p{i}")
        await client.write(await client.pmalloc(f"p{i}", 64),
                           bytes([i]) * 64)
        await client.detach(f"p{i}")
    flushed = await asyncio.gather(*(
        client.psync(f"p{i}") for i, client in enumerate(clients)))
    for client in clients:
        await client.close()
    return flushed


def test_concurrent_psyncs_park_no_executor_thread(tmp_path):
    before = set(threading.enumerate())
    with ServiceThread(TerpService(
            port=0, pool_dir=tmp_path,
            session_ew_ns=5_000_000_000)) as service:
        committer = service.store.committer
        submitted = committer.submitted
        flushed = asyncio.run(psync_burst(service.bound_port, SESSIONS))
        assert all(count >= 1 for count in flushed)
        assert committer.submitted - submitted == SESSIONS
        # Taken with the daemon still up: an executor keeps its idle
        # workers until its loop shuts down.
        assert new_executor_threads(before) == []


def stalled_service(tmp_path, stall_s):
    """A durable daemon whose flusher stalls ``stall_s`` per batch once
    the returned plan is armed."""
    plan = FaultPlan(seed=1, rules=[FaultRule(
        "store.commit_stall", "stall", delay_ns=int(stall_s * 1e9))])
    plan.disarm()
    return plan, ServiceThread(TerpService(
        port=0, pool_dir=tmp_path, faults=plan, commit_interval_us=0,
        session_ew_ns=5_000_000_000))


def psyncs_in_flight(service, plan, count):
    """``count`` client threads parked in a psync behind the stalled
    flusher, every snapshot submitted; returns the threads and their
    outcomes."""
    port = service.bound_port
    submitted = service.store.committer.submitted
    outcomes = {}

    def tenant(i):
        client = SyncTerpClient(port=port, user=f"t{i}",
                                retry=RetryPolicy(max_retries=0))
        client.connect()
        client.create(f"p{i}", MIB)
        client.attach(f"p{i}")
        client.write(client.pmalloc(f"p{i}", 64), b"d" * 64)
        ready.wait()
        try:
            outcomes[i] = client.psync(f"p{i}")
        except ConnectionLost as exc:
            outcomes[i] = exc

    ready = threading.Barrier(count + 1)
    threads = [threading.Thread(target=tenant, args=(i,), daemon=True)
               for i in range(count)]
    for thread in threads:
        thread.start()
    plan.arm()
    ready.wait()
    deadline = time.monotonic() + 5.0
    while service.store.committer.submitted - submitted < count:
        assert time.monotonic() < deadline, "psyncs never reached the pool"
        time.sleep(0.005)
    return threads, outcomes


def test_stop_with_psyncs_in_flight_completes_them(tmp_path):
    plan, thread = stalled_service(tmp_path, 0.3)
    service = thread.start()
    threads, outcomes = psyncs_in_flight(service, plan, 4)
    errors = service.metrics.errors
    thread.stop()
    for client in threads:
        client.join(5.0)
        assert not client.is_alive(), "a psync hung across stop()"
    # Every dispatch parked on the drain ran to its answer (stop then
    # closes the connections, so a client may read that as a lost
    # connection) and every batch is on media.
    assert service.metrics.ops["psync"] == 4
    assert service.metrics.errors == errors
    assert len(outcomes) == 4
    report = PmoStore(tmp_path).load_all()
    assert sorted(pmo.name for pmo in report.loaded) == \
        [f"p{i}" for i in range(4)]
    assert not report.journals_applied


def test_crash_with_psyncs_in_flight_fails_them_without_hanging(
        tmp_path):
    plan, thread = stalled_service(tmp_path, 0.3)
    service = thread.start()
    threads, outcomes = psyncs_in_flight(service, plan, 4)
    started = time.monotonic()
    thread.kill()
    assert time.monotonic() - started < 5.0
    for client in threads:
        client.join(5.0)
        assert not client.is_alive(), "a psync hung across crash()"
    assert all(isinstance(outcome, ConnectionLost)
               for outcome in outcomes.values()), outcomes
    assert len(outcomes) == 4


def test_a_failed_ticket_is_refused_at_its_own_slot(tmp_path):
    with ServiceThread(TerpService(
            port=0, pool_dir=tmp_path, commit_interval_us=50_000,
            session_ew_ns=5_000_000_000)) as service:

        def refuse(*_):
            raise PmoError("injected commit failure")

        service.store._commit_entry = refuse
        with SyncTerpClient(port=service.bound_port) as admin:
            admin.create("slot", MIB, mode=0o666)
        with RawWire(service.bound_port) as wire:
            wire.hello()
            assert wire.exchange(2, "attach", {"name": "slot"})[0].ok
            oid = wire.exchange(3, "pmalloc", {"name": "slot",
                                               "size": 64})[0].result
            wire.send([
                protocol.request(10, "write",
                                 {"oid": oid["oid"], "data": 4}),
                protocol.request(11, "psync", {"name": "slot"}),
                protocol.request(12, "ping")], b"data")
            replies, _ = wire.recv()
            assert [one.rid for one in replies] == [10, 11, 12]
            assert replies[0].ok and replies[2].ok
            assert replies[1].error == ("PmoError",
                                        "injected commit failure")
            wire.exchange(13, "detach", {"name": "slot"})


def test_a_ticket_retired_after_its_loop_closed_is_dropped():
    ticket = CommitTicket()
    loop = asyncio.new_event_loop()
    waiter = loop.create_task(_retired(ticket))
    loop.run_until_complete(asyncio.sleep(0))      # registered
    waiter.cancel()
    with pytest.raises(asyncio.CancelledError):
        loop.run_until_complete(waiter)
    loop.close()
    ticket.complete(1)                  # the flusher retires it: quiet
    assert ticket.wait(0) == 1
