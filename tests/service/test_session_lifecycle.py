"""Every way a terpd session ends, pinned record by record.

``fixtures/lifecycle_at_parent.json`` was captured by running this
file as a script at the parent of the commit that gave the daemon and
the router one serve loop and one session lifecycle: a refactor of how
sessions end must reproduce, for one fixed drive, the same session
journal records, the same audit ``(kind, entity, pmo, forced,
reason)`` sequence and the same ``global`` counts, times and tokens
masked.  The drive runs one durable daemon whose background sweeper
never wakes (every sweep is a ``run_sweep()`` by hand) through each
transition: goodbye then a new connection, a drop while holding a
window then a resume by token, budget expiry, engine eviction, an
injected session crash, the linger purge, shutdown, and a warm restart
with an overdue holding.

The goodbye test beside it is the one behaviour the refactor changed:
a connection that said goodbye has no session left to attach with.
"""

import json
import os
import re
import tempfile
import time

import pytest

from repro.core.units import MIB
from repro.faults.plan import FaultPlan, FaultRule
from repro.service.client import ConnectionLost, RemoteError, SyncTerpClient
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.recovery import SessionJournal
from repro.service.server import ServiceThread, TerpService

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "lifecycle_at_parent.json")
#: No holding outlives this unless a tenant asks for less.
LONG_EW_NS = 600_000_000_000
#: The background sweeper never runs: sweeps are by hand.
NEVER_NS = 3_600_000_000_000
#: Long enough to resume within, short enough to wait out.
LINGER_NS = 300_000_000
#: The tight budget a tenant negotiates to be swept (and to be overdue
#: across a restart).
TIGHT_US = 20_000
#: An engine EW target no drive reaches: every detach is delayed, so
#: sixteen mapped PMOs overrun the fifteen MPK keys.
EW_TARGET_US = 60_000_000.0
#: Journal fields that carry a time or a secret.
MASKED_FIELDS = ("at_ns", "wall_ns", "downtime_ns", "token")
#: Global series that are timings or depend on how reads split.
UNPINNED = ("request_latency", "sweep_latency", "wire_flushes")


def make_service(pool_dir, faults=None):
    return TerpService(port=0, seed=7, session_ew_ns=LONG_EW_NS,
                       sweep_period_ns=NEVER_NS,
                       session_linger_ns=LINGER_NS,
                       ew_target_us=EW_TARGET_US, pool_dir=pool_dir,
                       faults=faults)


def settle(service, session_id):
    """Wait until the daemon has let ``session_id`` go (its teardown
    ran), then until the library lock that teardown held is free."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        session = service.sessions.find(session_id)
        if session is None or not session.bound:
            break
        time.sleep(0.005)
    else:
        raise AssertionError(f"session {session_id} never unbound")
    with service.lib.lock:
        pass


def masked_audit(service):
    return [[e["kind"], e["entity"], e["pmo"],
             e["kind"] == "forced-detach",
             re.sub(r"[\d.]+ms down", "*ms down", e["reason"])]
            for e in service.obs.audit.events()]


def pinned_counts(service):
    return {key: value for key, value in service.metrics.to_dict().items()
            if key not in UNPINNED}


def phase(service, journal):
    """One daemon's share of the document, taken after it stopped."""
    return {"journal": [{key: "*" if key in MASKED_FIELDS else value
                         for key, value in record.items()}
                        for record in journal],
            "audit": masked_audit(service),
            "global": pinned_counts(service)}


def drive(root):
    """Three daemons on one pool directory: the document the fixture
    holds."""
    journal = []
    append = SessionJournal._append

    def spy(self, record):
        journal.append(dict(record))
        append(self, record)

    SessionJournal._append = spy
    try:
        return _drive(root, journal)
    finally:
        SessionJournal._append = append


def _drive(root, journal):
    pool = os.path.join(root, "pool")
    document = {}

    # -- first daemon: every live transition, then shutdown -------------
    plan = FaultPlan(seed=1, rules=[
        FaultRule(site="server.session_crash", count=1)])
    plan.disarm()
    service = make_service(pool, faults=plan)
    thread = ServiceThread(service)
    port = thread.start().bound_port

    def client(user, **kwargs):
        return SyncTerpClient(port=port, user=user, **kwargs).connect()

    # goodbye, then a new connection
    a = client("a")
    a.create("a", MIB, mode=0o666)
    a.attach("a")
    assert a.goodbye() == {"released": 1}
    a.close()

    # a drop while holding a window, then resume by token
    b = client("b")
    b.create("b", MIB, mode=0o666)
    b.attach("b")
    b.close()
    settle(service, b.session_id)
    b.connect()
    assert b.resumes == 1
    assert b.detach("b")["outcome"] == "silent"
    b.attach("b")
    b.detach("b")
    b.goodbye()
    b.close()

    # budget expiry
    c = client("c", ew_budget_us=TIGHT_US)
    c.create("c", MIB, mode=0o666)
    c.attach("c")
    time.sleep(3 * TIGHT_US / 1e6)
    assert service.sweeper.run_sweep() == 1
    assert c.detach("c")["reason"] == "already force-detached by sweeper"
    assert c.forced_detaches == 1
    c.goodbye()
    c.close()

    # engine eviction: sixteen mapped PMOs against fifteen keys
    d = client("d")
    for i in range(16):
        name = f"d{i:02d}"
        d.create(name, MIB, mode=0o666)
        d.attach(name)
        d.detach(name)
    d.goodbye()
    d.close()

    # an injected session crash
    e = client("e")
    e.create("e", MIB, mode=0o666)
    e.attach("e")
    plan.arm()
    with pytest.raises(ConnectionLost):
        e.ping()
    plan.disarm()
    e.close()

    # the linger purge
    f = client("f")
    f.create("f", MIB, mode=0o666)
    f.attach("f")
    f.close()
    settle(service, f.session_id)
    time.sleep(1.5 * LINGER_NS / 1e9)
    assert service.sweeper.run_sweep() == 0
    assert service.sessions.find(f.session_id) is None

    # shutdown: one session bound and holding, one lingering
    g = client("g")
    g.create("g", MIB, mode=0o666)
    g.attach("g")
    k = client("k")
    k.create("k", MIB, mode=0o666)
    k.attach("k")
    k.close()
    settle(service, k.session_id)
    thread.stop()
    g.close()
    document["shutdown"] = phase(service, journal)
    journal.clear()

    # -- second daemon: a clean restart, then a kill with two holdings --
    service = make_service(pool)
    thread = ServiceThread(service)
    port = thread.start().bound_port
    h = client("h", ew_budget_us=TIGHT_US)
    h.attach("a")
    i = client("i")
    i.attach("b")
    thread.kill()
    h.close()
    i.close()
    document["killed"] = phase(service, journal)
    journal.clear()
    time.sleep(3 * TIGHT_US / 1e6)

    # -- third daemon: warm restart with an overdue holding -------------
    service = make_service(pool)
    thread = ServiceThread(service)
    port = thread.start().bound_port
    report = service.recovery_report
    assert (report.forced_detaches, report.overdue_detaches) == (2, 1)
    h._port = port
    h.connect()
    assert h.resumes == 1
    h.ping()
    assert h.forced_detaches == 1
    thread.stop()
    h.close()
    document["restarted"] = phase(service, journal)
    return document


def test_every_session_end_reproduces_the_parent():
    with open(FIXTURE, encoding="utf-8") as fh:
        frozen = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="terp-lifecycle-") as root:
        got = json.loads(json.dumps(drive(root)))
    for part in frozen:
        for section in frozen[part]:
            assert got[part][section] == frozen[part][section], \
                (part, section)


def test_goodbye_leaves_no_session_to_attach_with(terpd):
    """After ``goodbye`` the connection is sessionless: ``attach`` is
    refused, and a ``hello`` there opens a fresh session.  Before, the
    daemon left the ended session bound, the attach succeeded, and the
    window it opened was one no sweep and no teardown would close."""
    with SyncTerpClient(port=terpd.bound_port, user="leaver") as client:
        client.create("leaver", MIB)
        first = client.session_id
        assert client.goodbye() == {"released": 0}
        with pytest.raises(RemoteError, match="requires a session"):
            client.attach("leaver")
        fresh = client.call("hello", version=PROTOCOL_VERSION,
                            user="leaver")
        assert fresh["session"] != first and not fresh["resumed"]
        client.attach("leaver")
    with SyncTerpClient(port=terpd.bound_port) as observer:
        deadline = time.monotonic() + 5.0
        while observer.trace(limit=1)["open_windows"] and \
                time.monotonic() < deadline:
            time.sleep(0.02)
        assert observer.trace(limit=1)["open_windows"] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="terp-lifecycle-") as tmp:
        captured = drive(tmp)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(captured, fh, indent=1)
        fh.write("\n")
