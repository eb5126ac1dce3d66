"""Two writers, one PMO, two snapshots in flight: nothing acked is lost.

Regression for the acked-write loss terpbench's I7 check found: the
group committer shipped ``entry.flush_seq`` as re-read *after* the
fsync, so a batch whose successor had already snapshotted the same
PMO shipped under the successor's seq, and the successor was then
skipped by the shipper as "already covered" — acked to its client,
never applied on the standby.  The seq now travels with the snapshot
that claimed it.
"""

import threading
import time

from repro.core.units import MIB
from repro.faults.invariants import check_acked_writes
from repro.faults.plan import FaultPlan, FaultRule
from repro.replication.applier import StandbyDaemon
from repro.service.client import SyncTerpClient
from repro.service.server import ServiceThread, TerpService
from tests.replication.conftest import settled

ROUNDS = 4


def test_overlapping_psyncs_of_one_pmo_all_reach_the_standby(tmp_path):
    # One 150 ms stall per round holds writer A's batch in the
    # committer (snapshot taken, seq claimed, nothing on disk yet)
    # while writer B snapshots the same PMO behind it.
    plan = FaultPlan(seed=1, rules=[FaultRule(
        "store.commit_stall", "stall", delay_ns=150_000_000)])
    plan.disarm()
    standby = StandbyDaemon(tmp_path / "standby")
    thread = ServiceThread(TerpService(
        port=0, session_ew_ns=5_000_000_000, faults=plan,
        commit_interval_us=0, pool_dir=tmp_path / "primary",
        replicate_to=f"127.0.0.1:{standby.start()}"))
    service = thread.start()
    port = service.bound_port
    alice = SyncTerpClient(port=port, user="alice").connect()
    bob = SyncTerpClient(port=port, user="bob").connect()
    try:
        alice.create("shared", MIB, mode=0o666)
        alice.attach("shared")
        bob.attach("shared")
        # Two pages apart: each writer dirties a page of its own.
        mine = alice.pmalloc("shared", 8192)
        yours = alice.pmalloc("shared", 8192)
        alice.psync("shared")
        acked = {}

        def write_and_sync(client, who, oid, value):
            client.write_u64(oid, value)
            client.psync("shared")
            acked[who] = value

        for round_no in range(1, ROUNDS + 1):
            submitted = service.store.committer.submitted
            plan.arm()
            first = threading.Thread(
                target=write_and_sync,
                args=(alice, "alice", mine, round_no))
            first.start()
            deadline = time.monotonic() + 5.0
            while service.store.committer.submitted == submitted:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            plan.disarm()            # only alice's batch stalls
            write_and_sync(bob, "bob", yours, round_no)
            first.join(10.0)
            assert not first.is_alive()
        assert acked == {"alice": ROUNDS, "bob": ROUNDS}
        status = alice.call("repl_status")
        assert status["dropped"] == 0 and status["lag"] == 0
    finally:
        thread.kill()
        alice.close()
        bob.close()
    try:
        settled(standby)             # the last acked batch is home
        primary_file, = (tmp_path / "primary").glob("*.pmo")
        standby_file = tmp_path / "standby" / primary_file.name
        assert standby_file.read_bytes() == primary_file.read_bytes()
        with SyncTerpClient(port=standby.promote(0),
                            user="alice") as reader:
            reader.attach("shared")
            observed = {"alice": reader.read_u64(mine),
                        "bob": reader.read_u64(yours)}
        report = check_acked_writes(observed, acked)
        assert report.ok, report.describe()
    finally:
        thread.stop()
        standby.stop()
