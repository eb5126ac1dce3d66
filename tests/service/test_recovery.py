"""terpd warm restart: the PR's end-to-end crash/recovery property.

Populate a durable pool through a live daemon, kill it in-process
(``ServiceThread.kill`` — no shutdown path runs), then start a second
daemon on the same ``--pool-dir`` and check the whole restart story:
committed data intact, torn pages repaired from the journal, bit-rot
quarantined with a typed error, surviving sessions resumable by their
original token, and any holding whose EW budget elapsed during the
outage force-detached — attributed on the audit timeline — before the
first request is served.
"""

import time

import pytest

from repro.faults.plan import FaultPlan, FaultRule
from repro.obs.audit import FORCED_DETACH, RESTART
from repro.service.client import RemoteError, SyncTerpClient
from repro.service.server import ServiceThread, TerpService
from repro.service.__main__ import build_parser, make_service

BUDGET_NS = 60_000_000           # 60ms session EW budget
SWEEP_NS = 5_000_000
LINGER_NS = 10_000_000_000


def make_daemon(pool_dir, *, faults=None, linger_ns=LINGER_NS,
                sweep_ns=SWEEP_NS):
    service = TerpService(
        port=0, session_ew_ns=BUDGET_NS, sweep_period_ns=sweep_ns,
        session_linger_ns=linger_ns, seed=7,
        pool_dir=str(pool_dir), faults=faults)
    thread = ServiceThread(service)
    thread.start()
    return thread, service


class TestWarmRestart:
    def test_committed_data_survives_kill(self, tmp_path):
        thread, _ = make_daemon(tmp_path)
        with SyncTerpClient(port=thread.service.bound_port,
                            user="w") as client:
            client.create("pool", 1 << 20, mode=0o666)
            client.attach("pool")
            oid = client.pmalloc("pool", 64)
            client.write_u64(oid, 0xDEAD)
            assert client.psync("pool") >= 1
            client.detach("pool")
        thread.kill()

        thread2, service2 = make_daemon(tmp_path)
        report = service2.recovery_report
        assert report is not None and report.pmos_loaded == 1
        with SyncTerpClient(port=thread2.service.bound_port,
                            user="r") as client:
            client.attach("pool")
            assert client.read_u64(oid) == 0xDEAD
            client.detach("pool")
        thread2.stop()

    def test_unsynced_writes_do_not_survive(self, tmp_path):
        """The durability point is psync — nothing else is promised."""
        thread, _ = make_daemon(tmp_path)
        with SyncTerpClient(port=thread.service.bound_port,
                            user="w") as client:
            client.create("pool", 1 << 20, mode=0o666)
            client.attach("pool")
            oid = client.pmalloc("pool", 64)
            client.write_u64(oid, 1)
            client.psync("pool")
            client.write_u64(oid, 2)     # never psync'd
            client.detach("pool")
        thread.kill()

        thread2, _ = make_daemon(tmp_path)
        with SyncTerpClient(port=thread2.service.bound_port,
                            user="r") as client:
            client.attach("pool")
            assert client.read_u64(oid) == 1
            client.detach("pool")
        thread2.stop()

    def test_torn_page_repaired_across_restart(self, tmp_path):
        plan = FaultPlan(seed=3, rules=[
            FaultRule(site="store.torn_page", kind="torn",
                      count=1, after=1)])
        # Long sweep period so the restart (not the live scrubber)
        # performs the repair.
        thread, _ = make_daemon(tmp_path, faults=plan,
                                sweep_ns=60_000_000_000)
        with SyncTerpClient(port=thread.service.bound_port,
                            user="w") as client:
            client.create("pool", 1 << 20, mode=0o666)
            client.attach("pool")
            oid = client.pmalloc("pool", 4096)
            client.write(oid, b"T" * 4000)
            client.psync("pool")
            client.detach("pool")
        assert plan.fired("store.torn_page")
        thread.kill()

        thread2, service2 = make_daemon(tmp_path)
        report = service2.recovery_report
        assert report.pages_repaired >= 1
        assert not report.pmos_quarantined
        with SyncTerpClient(port=thread2.service.bound_port,
                            user="r") as client:
            client.attach("pool")
            assert client.read(oid, 4000) == b"T" * 4000
            client.detach("pool")
        thread2.stop()

    def test_bit_rot_quarantined_across_restart(self, tmp_path):
        plan = FaultPlan(seed=3, rules=[
            FaultRule(site="store.bit_rot", kind="rot",
                      count=1, after=1)])
        # Long sweep period: the live scrubber would otherwise heal
        # the rot from the resident copy before the kill.
        thread, _ = make_daemon(tmp_path, faults=plan,
                                sweep_ns=60_000_000_000)
        with SyncTerpClient(port=thread.service.bound_port,
                            user="w") as client:
            client.create("pool", 1 << 20, mode=0o666)
            client.attach("pool")
            oid = client.pmalloc("pool", 4096)
            client.write(oid, b"R" * 4000)
            client.psync("pool")
            client.detach("pool")
        assert plan.fired("store.bit_rot")
        thread.kill()

        thread2, service2 = make_daemon(tmp_path)
        report = service2.recovery_report
        assert len(report.pmos_quarantined) == 1
        name, reason = report.pmos_quarantined[0]
        assert name == "pool" and "bit rot" in reason
        assert service2.metrics.pmos_quarantined == 1
        # Quarantine surfaces on the audit timeline too.
        assert any(e["kind"] == "quarantine"
                   for e in service2.obs.audit.events())
        with SyncTerpClient(port=thread2.service.bound_port,
                            user="r") as client:
            # Write attach denied with a typed error...
            with pytest.raises(RemoteError) as exc_info:
                client.attach("pool")
            assert exc_info.value.kind == "IntegrityError"
            # ...read attach still allowed (forensics).
            client.attach("pool", access="r")
            client.detach("pool")
        thread2.stop()

    def test_rotted_header_does_not_stop_the_daemon(self, tmp_path):
        """A header recovery cannot parse costs that one PMO: the
        daemon starts, reports the file denied, serves the rest."""
        thread, _ = make_daemon(tmp_path)
        with SyncTerpClient(port=thread.service.bound_port,
                            user="w") as client:
            for name in ("kept", "lost"):
                client.create(name, 1 << 20, mode=0o666)
            client.attach("kept")
            oid = client.pmalloc("kept", 64)
            client.write_u64(oid, 0xBEEF)
            client.psync("kept")
            client.detach("kept")
        thread.kill()
        (path,) = tmp_path.glob("lost-*.pmo")
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"lost")] = 0xFF           # no UTF-8 starts so
        path.write_bytes(raw)

        thread2, service2 = make_daemon(tmp_path)
        report = service2.recovery_report
        assert report.pmos_loaded == 1
        assert [name for name, _ in report.pmos_denied] == [path.name]
        with SyncTerpClient(port=thread2.service.bound_port,
                            user="r") as client:
            client.attach("kept")
            assert client.read_u64(oid) == 0xBEEF
            client.detach("kept")
        thread2.stop()

    def test_session_resumes_by_original_token(self, tmp_path):
        thread, _ = make_daemon(tmp_path)
        client = SyncTerpClient(port=thread.service.bound_port,
                                user="holder")
        client.connect()
        client.create("pool", 1 << 20, mode=0o666)
        sid, token = client.session_id, client.resume_token
        thread.kill()
        client.close()

        thread2, service2 = make_daemon(tmp_path)
        assert service2.recovery_report.sessions_restored == 1
        client._port = thread2.service.bound_port
        client.connect()
        assert client.resumes == 1
        assert client.session_id == sid
        assert client.resume_token == token
        client.goodbye()
        client.close()
        thread2.stop()

    def test_overdue_holding_forced_detached_at_recovery(self, tmp_path):
        """A window whose EW budget elapsed while the daemon was down
        is closed at recovery — before any request — and the timeline
        attributes the force to the outage."""
        thread, service = make_daemon(tmp_path)
        client = SyncTerpClient(port=service.bound_port, user="holder")
        client.connect()
        client.create("pool", 1 << 20, mode=0o666)
        client.attach("pool")
        entity = service.sessions.FIRST_ENTITY_ID + client.session_id
        thread.kill()
        client.close()
        time.sleep(BUDGET_NS / 1e9 * 1.5)    # outage outlasts budget

        thread2, service2 = make_daemon(tmp_path)
        report = service2.recovery_report
        assert report.forced_detaches == 1
        assert report.overdue_detaches == 1
        assert report.downtime_ns >= BUDGET_NS
        events = service2.obs.audit.events()
        forced = [e for e in events if e["kind"] == FORCED_DETACH]
        assert len(forced) == 1
        assert forced[0]["entity"] == entity
        assert forced[0]["reason"] == \
            "EW budget elapsed during daemon outage"
        # The restart itself is on the record, with the downtime.
        restarts = [e for e in events if e["kind"] == RESTART]
        assert len(restarts) == 1
        assert restarts[0]["duration_ns"] == report.downtime_ns
        # The forced close happened at recovery, before any request:
        # the attach replayed from the journal precedes it, and the
        # held duration spans the outage on the unbroken clock.
        assert forced[0]["duration_ns"] >= BUDGET_NS
        thread2.stop()

    def test_quick_restart_forces_detach_without_overdue(self, tmp_path):
        """Access never survives a crash, even inside budget — but the
        attribution then names the restart, not the outage."""
        thread, service = make_daemon(tmp_path)
        client = SyncTerpClient(port=service.bound_port, user="holder")
        client.connect()
        client.create("pool", 1 << 20, mode=0o666)
        client.attach("pool")
        thread.kill()
        client.close()

        thread2, service2 = make_daemon(tmp_path)
        report = service2.recovery_report
        assert report.forced_detaches == 1
        assert report.overdue_detaches == 0
        forced = [e for e in service2.obs.audit.events()
                  if e["kind"] == FORCED_DETACH]
        assert forced[0]["reason"] == "daemon restart"
        thread2.stop()

    def test_exposure_clock_counts_through_outage(self, tmp_path):
        """now_ns is anchored to the persisted epoch: the restarted
        daemon's clock reads pre-crash time plus real downtime."""
        thread, service = make_daemon(tmp_path)
        before = service.now_ns()
        thread.kill()
        time.sleep(0.05)
        thread2, service2 = make_daemon(tmp_path)
        after = service2.now_ns()
        assert after >= before + 50_000_000
        assert service2.recovery_report.epoch_wall_ns == \
            service.recovery_report.epoch_wall_ns
        thread2.stop()

    def test_graceful_stop_closes_sessions_in_journal(self, tmp_path):
        """After a *clean* stop, restart restores no sessions."""
        thread, _ = make_daemon(tmp_path)
        with SyncTerpClient(port=thread.service.bound_port,
                            user="w") as client:
            client.create("pool", 1 << 20, mode=0o666)
        thread.stop()
        thread2, service2 = make_daemon(tmp_path)
        report = service2.recovery_report
        assert report.sessions_restored == 0
        assert report.forced_detaches == 0
        thread2.stop()

    def test_recovery_report_in_metrics_op(self, tmp_path):
        thread, _ = make_daemon(tmp_path)
        with SyncTerpClient(port=thread.service.bound_port,
                            user="w") as client:
            client.create("pool", 1 << 20, mode=0o666)
        thread.kill()
        thread2, _ = make_daemon(tmp_path)
        with SyncTerpClient(port=thread2.service.bound_port,
                            user="r") as client:
            out = client.metrics()
            assert out["recovery"]["pmos_loaded"] == 1
        thread2.stop()


class TestScrubOnSweep:
    def test_sweeper_drives_scrub_and_repairs(self, tmp_path):
        plan = FaultPlan(seed=3, rules=[
            FaultRule(site="store.torn_page", kind="torn",
                      count=1, after=1)])
        thread, service = make_daemon(tmp_path, faults=plan)
        with SyncTerpClient(port=service.bound_port, user="w") as client:
            client.create("pool", 1 << 20, mode=0o666)
            client.attach("pool")
            oid = client.pmalloc("pool", 4096)
            client.write(oid, b"S" * 4000)
            client.psync("pool")
            client.detach("pool")
            assert plan.fired("store.torn_page")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and \
                    service.metrics.scrub_pages_repaired == 0:
                time.sleep(0.02)
            assert service.metrics.scrub_pages_repaired >= 1
            assert service.metrics.scrub_pages_verified >= 1
        # The repair is durable: a restart finds nothing to fix.
        thread.kill()
        thread2, service2 = make_daemon(tmp_path)
        assert service2.recovery_report.pages_repaired == 0
        assert not service2.recovery_report.pmos_quarantined
        thread2.stop()

    def test_one_pass_by_hand_counts_and_audits_the_scrub(self, tmp_path):
        """The sweeper runs the scrub: one ``run_sweep`` on a durable
        daemon whose own sweeper never wakes verifies at-rest pages,
        repairs the torn one, and puts a ``scrub`` event on the audit
        timeline at the pass's time."""
        plan = FaultPlan(seed=3, rules=[
            FaultRule(site="store.torn_page", kind="torn",
                      count=1, after=1)])
        thread, service = make_daemon(tmp_path, faults=plan,
                                      sweep_ns=3600 * 10**9)
        with SyncTerpClient(port=service.bound_port, user="w") as client:
            client.create("pool", 1 << 20, mode=0o666)
            client.attach("pool")
            client.write(client.pmalloc("pool", 4096), b"S" * 4000)
            client.psync("pool")
            client.detach("pool")
        assert plan.fired("store.torn_page")
        assert service.metrics.scrub_pages_verified == 0
        assert service.sweeper.run_sweep() == 0
        assert service.metrics.scrub_pages_verified >= 1
        assert service.metrics.scrub_pages_repaired == 1
        [event] = service.obs.audit.events(kind="scrub")
        assert event["at_ns"] == service.lib.clock_ns
        assert "repaired 1" in event["reason"]
        thread.stop()


class TestResumeLingerFlag:
    """S1: the resume-linger window is configurable end to end."""

    def test_cli_flag_reaches_service(self):
        args = build_parser().parse_args(
            ["--resume-linger-ms", "123.5", "--port", "0"])
        service = make_service(args)
        assert service.session_linger_ns == 123_500_000

    def test_cli_flag_default(self):
        from repro.service.server import DEFAULT_SESSION_LINGER_NS
        args = build_parser().parse_args(["--port", "0"])
        service = make_service(args)
        assert service.session_linger_ns == DEFAULT_SESSION_LINGER_NS

    def test_short_linger_expires_session(self, tmp_path):
        """With a tiny linger a dropped session is purged by the
        sweeper and cannot be resumed; a long linger (other tests)
        supports resume across a restart."""
        thread, service = make_daemon(tmp_path, linger_ns=1)
        client = SyncTerpClient(port=service.bound_port, user="u")
        client.connect()
        sid = client.session_id
        client.close()                   # drop: session starts linger
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and \
                any(s.session_id == sid
                    for s in service.sessions.lingering()):
            time.sleep(0.02)
        assert not any(s.session_id == sid
                       for s in service.sessions.lingering())
        thread.stop()
