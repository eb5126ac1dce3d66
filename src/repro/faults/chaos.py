"""The chaos engine: seeded kill-and-check runs as rows of one table.

The paper's theorem — every exposure window is bounded — is checked
under faults by *scenarios*.  A scenario is a row of :data:`SCENARIOS`
— a topology (:mod:`repro.topology`), a fault-plan generator or none,
a workload, a kill schedule and the scopes and named checks that judge
it; ``--help`` lists them — and :func:`run` is the one runner, owning
the phases every row shares:

1. start the row's topology, plan disarmed;
2. the workload's fault-free ``setup``;
3. arm the plan; the workload's ``start`` — worker threads (every
   request *acknowledged or typed-failed*, :class:`Tally`) and whatever
   it does in the foreground;
4. the kill schedule: wait, ``kill`` the victim, wait out the outage,
   ``recover`` it;
5. the workload's ``settle``; join the workers — one still alive is a
   hang, and a hang is a failure;
6. the workload's ``finish`` (read-backs, resumes);
7. disarm; drain until no daemon has a window open; fetch each
   daemon's audit over the wire;
8. judge: :func:`~repro.faults.invariants.check_events` per scope with
   one slack formula, the row's extra scopes, the row's named checks.

The result is one :class:`Verdict`.  It is OK iff every named check
holds, every scope's report is clean and nothing *unexpected* (an
untyped exception, a hang, a harness error) happened; it carries the
seed and the minimal fault plan, so any failure replays with the line
it prints: ``python -m repro.faults.chaos <row> --seed N``.

**Adding a scenario** is adding a row: name a topology, a workload and
a kill schedule that exist, list the checks that must hold.  A new
victim is a branch in its topology's ``kill`` / ``recover``; a new
check is a predicate in :data:`CHECKS`; only a new traffic shape needs
code here, as a :class:`Workload` of plain functions.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Tuple, Union)

from repro.cluster.ring import HashRing
from repro.core.record import field, record, replace
from repro.faults.invariants import (
    InvariantReport, check_acked_writes, check_events)
from repro.faults.plan import FaultPlan, FaultRule
from repro.obs.audit import FORCED_DETACH, RESTART
from repro.pmo.store import DEFAULT_COMMIT_INTERVAL_US
from repro.service.client import RemoteError, SyncTerpClient
from repro.service.retry import (
    CircuitBreaker, CircuitOpenError, RetryPolicy)
from repro.topology import TOPOLOGIES

#: Extra bounded-exposure slack for host scheduling jitter: the
#: sweeper is an event-loop task on a shared CI box, not a hardware
#: timer, so a pass can land arbitrarily late under load.
SCHEDULING_SLACK_NS = 250_000_000
#: How long a worker thread may outlive its run before it is a hang.
JOIN_TIMEOUT_S = 60.0
#: How long the sweepers get to close what the workers left open.
DRAIN_TIMEOUT_S = 10.0


# -- fault plans (in-thread topologies only) ------------------------------

def _drawn(seed: int, rng: random.Random, menu) -> FaultPlan:
    """``menu`` in order: one draw decides whether a rule exists, then
    making it draws how eager it is."""
    return FaultPlan(seed=seed, rules=[
        make() for chance, make in menu if rng.random() < chance])


def random_plan(seed: int) -> FaultPlan:
    """A randomized-but-seeded fault plan covering every layer.

    Each rule is bounded (small ``count``, short ``delay_ns``) so a
    run always terminates; which rules exist and how eager they are
    is drawn from the seed.
    """
    rng = random.Random(seed)
    return _drawn(seed, rng, (
        (0.7, lambda: FaultRule(
            "lib.storage_write", "error",
            probability=round(0.02 + 0.10 * rng.random(), 3),
            count=rng.randint(1, 3))),
        (0.5, lambda: FaultRule(
            "lib.psync_stall", "stall",
            probability=round(0.05 + 0.15 * rng.random(), 3),
            count=2, delay_ns=rng.randrange(200_000, 2_000_000))),
        (0.6, lambda: FaultRule(
            "engine.sweep_stall", "stall", probability=0.25,
            count=rng.randint(1, 3))),
        (0.4, lambda: FaultRule(
            "engine.buffer_full", "error", probability=0.05, count=2)),
        (0.4, lambda: FaultRule(
            "engine.domain_exhausted", "error", probability=0.05,
            count=2)),
        (0.6, lambda: FaultRule(
            "server.conn_drop", "before", probability=0.04,
            count=rng.randint(1, 2))),
        (0.5, lambda: FaultRule(
            "server.partial_frame", "after", probability=0.04,
            count=rng.randint(1, 2))),
        (0.5, lambda: FaultRule(
            "server.delay_response", "stall", probability=0.06,
            count=3, delay_ns=rng.randrange(200_000, 2_000_000))),
        (0.25, lambda: FaultRule(
            "server.session_crash", "crash", probability=0.02,
            count=1))))


def restart_plan(seed: int) -> FaultPlan:
    """A seeded plan for the kill-and-restart leg.

    Only *recoverable* faults: torn home-page writes (the journal is
    the repair source) plus mild service-level noise.  ``store.bit_rot``
    is deliberately absent — rot quarantines the workload PMO, and this
    leg's property is that committed data survives the crash intact.
    """
    rng = random.Random(seed ^ 0x5EED)
    return _drawn(seed, rng, (
        (0.7, lambda: FaultRule(
            "store.torn_page", "torn",
            probability=round(0.10 + 0.30 * rng.random(), 3),
            count=rng.randint(1, 3))),
        (0.4, lambda: FaultRule(
            "lib.psync_stall", "stall", probability=0.10, count=2,
            delay_ns=rng.randrange(200_000, 1_500_000))),
        (0.4, lambda: FaultRule(
            "engine.sweep_stall", "stall", probability=0.25,
            count=rng.randint(1, 2))),
        (0.3, lambda: FaultRule(
            "server.delay_response", "stall", probability=0.05,
            count=2, delay_ns=rng.randrange(200_000, 1_500_000)))))


# -- the verdict ----------------------------------------------------------

class Tally:
    """Op accounting: every request acked or typed-failed."""

    def __init__(self) -> None:
        self.ok = 0
        self.failed = 0
        self.by_kind: Dict[str, int] = {}
        #: exceptions that were NOT typed failures — always a bug.
        self.unexpected: List[str] = []

    def attempt(self, fn) -> Optional[Any]:
        try:
            result = fn()
        except (RemoteError, CircuitOpenError) as exc:
            # Typed failure: the request's fate is known and named.
            kind = getattr(exc, "kind", type(exc).__name__)
            self.failed += 1
            self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
            return None
        except Exception as exc:       # noqa: BLE001 — the whole point
            self.unexpected.append(f"{type(exc).__name__}: {exc}")
            return None
        self.ok += 1
        return result

    def merge(self, other: "Tally") -> None:
        self.ok += other.ok
        self.failed += other.failed
        self.unexpected.extend(other.unexpected)
        for kind, count in other.by_kind.items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + count


@record
class Verdict:
    """What one seeded run of one scenario found."""

    scenario: str
    seed: int
    #: the row's named checks; a check never reached stays ``False``
    checks: Dict[str, bool]
    #: one replay of the audit record per scope the row judges
    reports: Dict[str, InvariantReport] = field(default_factory=dict)
    #: every worker's requests, merged
    tally: Tally = field(default_factory=Tally)
    #: what the scenario observed on the way (counts, read-backs, the
    #: recovery report): evidence, not conjuncts
    facts: Dict[str, Any] = field(default_factory=dict)
    #: untyped exceptions, hung workers, harness errors — always a bug
    unexpected: List[str] = field(default_factory=list)
    slack_ns: int = 0
    #: ``{"seed", "rules"}``: the rules that fired (none off-thread)
    plan: Dict[str, Any] = field(default_factory=dict)
    #: the command line that repeats this run
    replay: str = ""

    @property
    def ok(self) -> bool:
        return (all(self.checks.values())
                and all(r.ok for r in self.reports.values())
                and not self.unexpected)

    def describe(self) -> str:
        lines = [
            f"{self.scenario} seed {self.seed}: "
            f"{'OK' if self.ok else 'FAILED'}",
            f"  requests: {self.tally.ok} ok, {self.tally.failed} "
            f"typed-failed ({self.tally.by_kind})"]
        if self.checks:
            lines.append("  checks: " + ", ".join(
                f"{name}={held}" for name, held in self.checks.items()))
        lines.extend(f"  {name}: {value}"
                     for name, value in self.facts.items()
                     if name not in self.checks)
        lines.extend(f"  invariants[{scope}]: {report.describe()}"
                     for scope, report in self.reports.items())
        if self.unexpected:
            lines.append(f"  UNEXPECTED: {self.unexpected}")
        if not self.ok:
            lines.append(f"  replay: {self.replay}")
            lines.append("  minimal plan: "
                         + json.dumps(self.plan.get("rules", [])))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "checks": list(self.checks),
            **self.checks,
            "requests_ok": self.tally.ok,
            "requests_failed": self.tally.failed,
            "failures_by_kind": self.tally.by_kind,
            **self.facts,
            "slack_ns": self.slack_ns,
            "unexpected": self.unexpected,
            "violations": {scope: [str(v) for v in report.violations]
                           for scope, report in self.reports.items()},
            "plan": self.plan,
            "replay": self.replay,
        }


# -- one run's state ------------------------------------------------------

class Run:
    """What the phases of one run hand each other."""

    def __init__(self, row: "Scenario", seed: int,
                 sizes: Dict[str, int], plan: Optional[FaultPlan],
                 topology: Any) -> None:
        self.row, self.seed, self.sizes = row, seed, sizes
        self.plan, self.topology = plan, topology
        self.port = 0
        self.tallies: List[Tally] = []
        self.clients: List[SyncTerpClient] = []
        self.facts: Dict[str, Any] = {}
        self.unexpected: List[str] = []
        #: scope -> audit state, as ``topology.audits()`` returned it
        self.audits: Dict[str, Dict[str, Any]] = {}
        #: set once the victim is dead / to end open-ended workers
        self.killed = threading.Event()
        self.stop = threading.Event()
        self.lock = threading.Lock()
        #: the workload's own state between its hooks
        self.w = SimpleNamespace()

    def client(self, user: str, idx: int) -> SyncTerpClient:
        """A retrying client whose backoff is sized to what the row
        does to the daemon: a dropped frame or an injected error (no
        kill; a breaker too, so its trip is exercised), or the whole
        kill-to-recover window."""
        if self.row.kill is None:
            client = SyncTerpClient(
                port=self.port, user=user,
                retry=RetryPolicy(max_retries=6, base_delay_s=0.001,
                                  max_delay_s=0.02,
                                  seed=self.seed * 131 + idx),
                breaker=CircuitBreaker(failure_threshold=8,
                                       reset_timeout_s=0.05))
        else:
            client = SyncTerpClient(
                port=self.port, user=user,
                retry=RetryPolicy(max_retries=10, base_delay_s=0.01,
                                  multiplier=2.0, max_delay_s=0.25,
                                  seed=self.seed * 131 + idx))
        self.clients.append(client)
        return client

    def connected(self, user: str, idx: int,
                  tally: Tally) -> Optional[SyncTerpClient]:
        """:meth:`client`, connected — ``hello`` is not retried by the
        client itself, and a dropped one is a typed failure."""
        client = self.client(user, idx)
        for attempt in range(4):
            if tally.attempt(client.connect) is not None:
                return client
            time.sleep(0.002 * (attempt + 1))
        return None

    def admin(self) -> SyncTerpClient:
        return SyncTerpClient(port=self.port, user="admin")

    @property
    def victim_audit(self) -> Dict[str, Any]:
        """The timeline of the daemon the kill schedule named (after a
        promotion: of the daemon now serving in its place)."""
        return self.audits.get(self.row.kill.victim,
                               {"events": [], "recovery": {}})


def _leave(tally: Tally, client: SyncTerpClient) -> None:
    tally.attempt(client.goodbye)
    client.close()


# -- workloads: cycles (one PMO) and shards (one per worker, ring-placed) ---

def _cycles_setup(run: Run) -> None:
    w, sessions = run.w, run.sizes["sessions"]
    w.names, w.rounds = ["chaos"] * sessions, run.sizes["requests"]
    with run.admin() as admin:
        admin.create("chaos", 1 << 20, mode=0o666)
        w.oids = [admin.pmalloc("chaos", 16) for _ in range(sessions)]


def _shards_setup(run: Run) -> None:
    """One PMO name per worker, spread so every shard owns at least
    one — computed with the same seeded ring the router uses, so the
    placement needs no probing.  The squatter holds an attachment on a
    victim-owned PMO through the SIGKILL: recovery must force-close it
    and attribute the closure to the outage, never hand it back."""
    w, shards = run.w, run.sizes["shards"]
    ring = HashRing(range(shards), seed=run.seed)
    w.names, w.rounds = [], run.sizes["rounds"]
    for idx in range(run.sizes["workers"]):
        k = 0
        while ring.owner(f"cchaos-{idx}-{k}") != idx % shards:
            k += 1
        w.names.append(f"cchaos-{idx}-{k}")
    with run.admin() as admin:
        for name in w.names:
            admin.create(name, 1 << 20, mode=0o666)
        w.oids = [admin.pmalloc(name, 16) for name in w.names]
    victim = run.topology.victims.index(run.row.kill.victim)
    run.facts.update(shards=shards, victim=victim)
    w.squatter = run.client("squatter", 99)
    w.squatter.connect()
    w.squatter.attach(w.names[victim])


def _tenant_worker(run: Run, idx: int, tally: Tally) -> None:
    """``rounds`` tenant cycles on this worker's PMO, every request
    tallied.  Where nothing gets killed, worker 0 then overstays its
    budget on purpose: the *live* sweeper must force the window closed
    and the late detach be the defined silent outcome — the theorem's
    enforcement arm, observed."""
    w = run.w
    client = run.connected(f"worker{idx}", idx, tally)
    if client is None:
        return
    name, oid = w.names[idx], w.oids[idx]
    for r in range(w.rounds):
        if run.stop.is_set():
            break
        tally.attempt(lambda: client.attach(name))
        tally.attempt(lambda: client.write_u64(oid, idx * 1000 + r))
        tally.attempt(lambda: client.read_u64(oid))
        tally.attempt(lambda: client.psync(name))
        tally.attempt(lambda: client.detach(name))
    if idx == 0 and run.row.kill is None:
        tally.attempt(lambda: client.attach(name))
        time.sleep(run.row.session_ew_ns * 1.5 / 1e9)
        tally.attempt(lambda: client.detach(name))
    _leave(tally, client)


def _shards_finish(run: Run) -> None:
    # The squatter's window was force-closed by recovery; its own
    # late detach must be the defined silent no-op or typed error.
    tally, squatter = Tally(), run.w.squatter
    tally.attempt(lambda: squatter.detach(
        run.w.names[run.facts["victim"]]))
    _leave(tally, squatter)
    run.unexpected.extend(tally.unexpected)
    run.facts["victim_restarts"] = run.topology.supervisor.state()[
        "shards"][run.facts["victim"]]["restarts"]


# -- workload: commit (commit, squat, get killed, come back) --------------

def _commit_start(run: Run) -> None:
    """Commit data through ``psync`` (under the plan's torn pages),
    then leave a squatter holding an attachment for the kill to find.

    The writer's EW budget must leave headroom for these five psyncs —
    each pays the group-commit window plus two thread handoffs — even
    on a loaded runner; the outage in turn must comfortably outlast
    that budget so the squatter's force-close is attributable to it.
    """
    w, seed = run.w, run.seed
    w.values, w.oids = {}, []
    with SyncTerpClient(port=run.port, user="writer") as writer:
        writer.create("chaos", 1 << 20, mode=0o666)
        writer.attach("chaos")
        for i in range(4):
            w.oids.append(writer.pmalloc("chaos", 16))
            w.values[i] = seed * 10_000 + i
            writer.write_u64(w.oids[i], w.values[i])
        # A full page whose every byte changes per round: torn
        # home-page writes on it are *visible* (the stale tail
        # mismatches the new CRC), so the journal repair path is
        # actually exercised rather than dodged by identical halves.
        w.blob_oid = writer.pmalloc("chaos", 4096)
        w.blob = bytes([seed & 0xFF]) * 4096
        writer.write(w.blob_oid, w.blob)
        writer.psync("chaos")
        # A couple more committed rounds so torn-page rules get
        # home-page writes to tear.
        for i in range(4):
            w.values[i] += 1
            writer.write_u64(w.oids[i], w.values[i])
            w.blob = bytes([(seed + i + 1) & 0xFF]) * 4096
            writer.write(w.blob_oid, w.blob)
            writer.psync("chaos")
        writer.detach("chaos")
    w.squatter = run.client("squatter", 0)
    w.squatter.connect()
    w.squatter.attach("chaos")
    w.held = (w.squatter.session_id, w.squatter.resume_token)


def _commit_finish(run: Run) -> None:
    """Against the recovered daemon: the squatter resumes with the
    token minted before the crash; a fresh reader finds every
    committed byte."""
    w = run.w
    w.squatter.close()                # its socket died with the daemon
    w.squatter.connect()
    run.facts["session_resumed"] = (
        w.squatter.resumes >= 1 and
        (w.squatter.session_id, w.squatter.resume_token) == w.held)
    with SyncTerpClient(port=run.port, user="reader") as reader:
        reader.attach("chaos", access="r")
        run.facts["data_intact"] = all(
            reader.read_u64(w.oids[i]) == w.values[i]
            for i in range(4)) and \
            reader.read(w.blob_oid, 4096) == w.blob
        reader.detach("chaos")
    w.squatter.goodbye()
    w.squatter.close()


# -- workload: counters (monotone acked counters across a failover) -------

def _counters_setup(run: Run) -> None:
    w, writers = run.w, run.sizes["writers"]
    with run.admin() as admin:
        admin.create("failover", 1 << 20, mode=0o666)
        w.oids = [admin.pmalloc("failover", 16)
                  for _ in range(writers)]
    #: per writer (named by its index, as a JSON key): the highest
    #: value whose psync was acknowledged
    w.acked = {}
    w.pre_acks, w.post_acks = [0] * writers, [0] * writers


def _counters_worker(run: Run, idx: int, tally: Tally) -> None:
    w = run.w
    client = run.connected(f"fworker{idx}", idx, tally)
    if client is None:
        return
    tally.attempt(lambda: client.attach("failover"))
    value = idx * 1_000_000
    while not run.stop.is_set():
        value += 1
        # write_u64/psync return None/0 on success, so wrap them in
        # a sentinel tuple to tell success from a typed failure.
        if tally.attempt(lambda: (
                client.write_u64(w.oids[idx], value), True)) is None:
            # Forced-detach across the failover (or a dead window):
            # re-attach and resume the counter where it stood.
            tally.attempt(lambda: client.attach("failover"))
            value -= 1
            continue
        if tally.attempt(
                lambda: (client.psync("failover"), True)) is not None:
            with run.lock:
                w.acked[str(idx)] = value
                (w.post_acks if run.killed.is_set()
                 else w.pre_acks)[idx] += 1
    _leave(tally, client)


def _counters_settle(run: Run) -> None:
    """Writers must commit against the promoted daemon before the run
    counts: wait until every writer lands post-kill acks."""
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline and \
            not all(n >= 3 for n in run.w.post_acks):
        time.sleep(0.02)
    run.stop.set()


def _counters_finish(run: Run) -> None:
    """I7's ground truth: what the promoted daemon serves back."""
    w, observed = run.w, {}
    with SyncTerpClient(port=run.port, user="freader") as reader:
        reader.attach("failover", access="r")
        for idx, oid in enumerate(w.oids):
            try:
                observed[str(idx)] = reader.read_u64(oid)
            except Exception:         # noqa: BLE001 — I7 reports it
                observed[str(idx)] = None
        reader.detach("failover")
        run.facts["repl_status"] = reader.call("repl_status")
    run.facts.update(
        acked=dict(w.acked), observed=observed,
        acks_before_kill=sum(1 for n in w.pre_acks if n),
        acks_after_promote=sum(w.post_acks))


@record(frozen=True)
class Workload:
    """A traffic shape, as plain functions over the :class:`Run`."""

    #: fault-free: create PMOs, allocate, place squatters
    setup: Optional[Callable[[Run], None]] = None
    #: armed, foreground, before the kill clock starts
    start: Optional[Callable[[Run], None]] = None
    #: armed, one thread per unit of ``size``: ``worker(run, idx, tally)``
    worker: Optional[Callable[[Run, int, Tally], None]] = None
    #: the size that counts the workers
    size: str = ""
    #: after ``recover``, before the join
    settle: Optional[Callable[[Run], None]] = None
    #: after the join, before the drain
    finish: Optional[Callable[[Run], None]] = None


WORKLOADS = {
    "cycles": Workload(setup=_cycles_setup, worker=_tenant_worker,
                       size="sessions"),
    "commit": Workload(start=_commit_start, finish=_commit_finish),
    "shards": Workload(setup=_shards_setup, worker=_tenant_worker,
                       size="workers", finish=_shards_finish),
    "counters": Workload(setup=_counters_setup, worker=_counters_worker,
                         size="writers", settle=_counters_settle,
                         finish=_counters_finish),
}


# -- judging: scopes and named checks -------------------------------------

def _slack_ns(run: Run) -> int:
    """The one slack formula: sweeper cadence, one period per injected
    sweeper stall (a stall *delays* enforcement by a pass, never loses
    it), every injected delay, and host scheduling.  A restart's own
    outage is not slack: its ``restart`` event grants it per window."""
    stalls = injected_delay_ns = 0
    if run.plan is not None:
        stalls = len(run.plan.fired("engine.sweep_stall"))
        injected_delay_ns = sum(
            inj.delay_ns for inj in run.plan.fired())
    return ((6 + stalls) * run.row.sweep_period_ns
            + injected_delay_ns + SCHEDULING_SLACK_NS)


def _scope_each(run: Run) -> Dict[str, InvariantReport]:
    """I1-I6 on every serving daemon's own timeline — after a warm
    restart or a promotion that is the *merged* pre/post-crash
    history, its ``restart`` event granting the outage allowance."""
    reports, slack_ns = {}, _slack_ns(run)
    for scope, audit in run.audits.items():
        events, summary = audit["events"], audit["summary"]
        # A wrapped ring would make pairing a false alarm; with the
        # 64Ki-event ring these workloads never wrap, but stay honest.
        if summary.get("events", 0) > len(events):
            summary = None
        reports[scope] = check_events(
            events, ew_budget_ns=run.row.session_ew_ns,
            slack_ns=slack_ns, summary=summary,
            open_windows=audit["open_windows"])
    return reports


def _scope_global(run: Run) -> Dict[str, InvariantReport]:
    """I1-I5 on the shards' timelines merged by timestamp.  Restart
    events are *filtered* and the downtime granted to every window as
    slack instead: I6 is a per-process property (a survivor's window
    legitimately stays open across another shard's restart), so
    checking it here would manufacture violations — the victim's own
    I6 ran per shard, with the precise per-window accounting.
    Entities are remapped to ``entity + (shard << 32)`` so per-shard
    id spaces cannot alias."""
    merged: List[Dict[str, Any]] = []
    downtime_ns = 0
    for shard, audit in enumerate(run.audits.values()):
        for event in audit["events"]:
            if event.get("kind") == RESTART:
                downtime_ns += event.get("duration_ns") or 0
                continue
            merged.append({**event, "entity":
                           (event.get("entity") or 0) + (shard << 32)})
    merged.sort(key=lambda e: e.get("at_ns", 0))
    return {"global": check_events(
        merged, ew_budget_ns=run.row.session_ew_ns,
        slack_ns=_slack_ns(run) + downtime_ns,
        open_windows=[w for a in run.audits.values()
                      for w in a["open_windows"]])}


def _scope_i7(run: Run) -> Dict[str, InvariantReport]:
    """I7: every acknowledged write is served back after failover."""
    report = check_acked_writes(run.facts.get("observed", {}),
                                run.facts.get("acked", {}))
    run.facts["i7_violations"] = [str(v) for v in report.violations]
    return {"i7": report}


SCOPES = {"each": _scope_each, "global": _scope_global,
          "i7": _scope_i7}


def _forced(audit: Dict[str, Any], *words: str) -> List[str]:
    """The reasons of an audit's forced detaches — with ``words``,
    only those carrying one.  Recovery writes ``EW budget elapsed
    during daemon outage`` on a holding the outage made overdue and
    ``daemon restart`` on the rest."""
    reasons = [str(e.get("reason", "")) for e in audit["events"]
               if e.get("kind") == FORCED_DETACH]
    return [r for r in reasons
            if not words or any(word in r for word in words)]


def _restarted(audit: Dict[str, Any]) -> bool:
    return any(e.get("kind") == RESTART for e in audit["events"])


def _outage_attributed(run: Run) -> bool:
    return bool(_forced(run.victim_audit, "outage", "restart"))


def _survivors_clean(run: Run) -> bool:
    """No survivor saw a restart or outage fallout of its own."""
    return not any(_restarted(audit)
                   or _forced(audit, "outage", "restart")
                   for scope, audit in run.audits.items()
                   if scope != run.row.kill.victim)


#: name -> predicate over the finished run.  A row's ``checks`` are
#: conjuncts of its verdict.
CHECKS: Dict[str, Callable[[Run], bool]] = {
    # the committed bytes, read back after the restart, are the bytes
    "data_intact": lambda run: run.facts.get("data_intact") is True,
    # the dropped session resumed: same id, same pre-crash token
    "session_resumed":
        lambda run: run.facts.get("session_resumed") is True,
    # the holding the outage made overdue was force-closed *for that*
    "overdue_attributed":
        lambda run: bool(_forced(run.victim_audit, "outage")),
    # the crash is on the timeline the recovered daemon serves
    "restart_seen": lambda run: _restarted(run.victim_audit),
    # windows that straddled the kill were closed by recovery, by name
    "outage_attributed": _outage_attributed,
    "victim_outage_attributed": _outage_attributed,
    "victim_restarted":
        lambda run: run.facts.get("victim_restarts", 0) >= 1,
    "survivors_clean": _survivors_clean,
    # the standby took over the very port the primary died on
    "promoted":
        lambda run: run.facts.get("recovered_port") == run.port,
    # both phases of the failover carried acknowledged commits
    "acked_before_kill":
        lambda run: run.facts.get("acks_before_kill", 0) > 0,
    "acked_after_promote":
        lambda run: run.facts.get("acks_after_promote", 0) > 0,
}


# -- the table ------------------------------------------------------------

@record(frozen=True)
class Kill:
    """Whom to SIGKILL and when; ranges are drawn from the seed.  How
    the victim comes back is its topology's ``recover``."""

    #: a process of the topology: ``daemon``, ``shardN``, ``primary``
    victim: str
    #: seconds of traffic before the kill (0: as soon as the
    #: workload's ``start`` returns)
    after_s: Tuple[float, float]
    #: seconds the victim stays dead before ``recover`` is called
    outage_s: Tuple[float, float]


@record(frozen=True)
class Scenario:
    """One row: everything a run is, as data."""

    name: str
    summary: str
    topology: str                      # key of repro.topology.TOPOLOGIES
    workload: str                      # key of WORKLOADS
    #: per-session exposure budget and sweeper period of every daemon
    session_ew_ns: int
    sweep_period_ns: int
    durable: bool = True
    #: seed -> FaultPlan; only ``thread`` can wire one through
    plan: Optional[Callable[[int], FaultPlan]] = None
    kill: Optional[Kill] = None
    #: keys of SCOPES, judged in order
    scopes: Tuple[str, ...] = ("each",)
    #: keys of CHECKS
    checks: Tuple[str, ...] = ()
    #: the sizes the CLI exposes, with their defaults
    sizes: Mapping[str, int] = field(default_factory=dict)
    #: group-commit windows to draw from (one value: not drawn)
    commit_interval_us: Tuple[int, ...] = (DEFAULT_COMMIT_INTERVAL_US,)


_RESTART = Scenario(
    name="restart",
    summary="commit under torn pages, kill the daemon under a squatter, "
            "outlast its budget, warm-restart the pool",
    topology="thread", workload="commit", plan=restart_plan,
    session_ew_ns=80_000_000, sweep_period_ns=3_000_000,
    kill=Kill("daemon", after_s=(0, 0), outage_s=(0.2, 0.2)),
    checks=("data_intact", "session_resumed", "overdue_attributed",
            "restart_seen"))

SCENARIOS: Dict[str, Scenario] = {row.name: row for row in (
    Scenario(
        name="chaos",
        summary="a random fault plan through every layer of a live "
                "terpd under multi-session traffic",
        topology="thread", workload="cycles", plan=random_plan,
        durable=False,
        session_ew_ns=12_000_000, sweep_period_ns=3_000_000,
        sizes={"sessions": 3, "requests": 5}),
    _RESTART,
    # The same row on a real process: no plan can reach it, the kill
    # is a real ``kill -9``, and only the wire judges.
    replace(
        _RESTART, name="restart-proc", topology="process", plan=None,
        summary="the restart row on a real subprocess: kill -9, then "
                "the same command line"),
    Scenario(
        name="cluster",
        summary="kill one shard of a durable cluster mid-traffic; the "
                "supervisor warm-restarts it",
        topology="cluster", workload="shards",
        # Generous: the whole cluster shares whatever cores the host
        # has, and a shard restart stalls everyone.
        session_ew_ns=400_000_000, sweep_period_ns=20_000_000,
        kill=Kill("shard0", after_s=(0.15, 0.15), outage_s=(0, 0)),
        scopes=("each", "global"),
        checks=("victim_restarted", "victim_outage_attributed",
                "survivors_clean"),
        sizes={"shards": 2, "workers": 4, "rounds": 6}),
    Scenario(
        name="failover",
        summary="kill a replicated primary mid-group-commit, promote "
                "its standby onto the same port (I7)",
        topology="pair", workload="counters",
        # Generous: the outage itself must not exhaust a window's
        # allowance before recovery attributes it.
        session_ew_ns=400_000_000, sweep_period_ns=20_000_000,
        # A nonzero, seed-drawn group-commit window keeps commits (and
        # the ship that follows each journal fsync) in flight when the
        # kill lands.
        commit_interval_us=(200, 500, 1000, 2000, 4000),
        kill=Kill("primary", after_s=(0.10, 0.35),
                  outage_s=(0.05, 0.20)),
        scopes=("each", "i7"),
        checks=("promoted", "restart_seen", "outage_attributed",
                "acked_before_kill", "acked_after_promote"),
        sizes={"writers": 3}),
)}


# -- the runner -----------------------------------------------------------

def run(scenario: Union[str, Scenario], seed: int,
        **sizes: int) -> Verdict:
    """One seeded run of one row (or of a row a test derived with
    ``repro.core.record.replace``); returns the full verdict.  ``sizes``
    override the row's own."""
    row = SCENARIOS[scenario] if isinstance(scenario, str) else scenario
    unknown = set(sizes) - set(row.sizes)
    if unknown:
        raise ValueError(f"scenario {row.name!r} has no size "
                         f"{sorted(unknown)}; it has {dict(row.sizes)}")
    replay = " ".join(
        [f"python -m repro.faults.chaos {row.name} --seed {seed}"]
        + [f"--{name} {value}" for name, value in sizes.items()
           if value != row.sizes[name]])
    sizes = {**row.sizes, **sizes}
    rng = random.Random(seed ^ 0xFA110)
    settings = {
        "seed": seed, "session_ew_ns": row.session_ew_ns,
        "sweep_period_ns": row.sweep_period_ns,
        # long enough for a resume to find its session after any
        # outage a row stages
        "session_linger_ns": 10_000_000_000,
        "commit_interval_us": rng.choice(row.commit_interval_us)}
    plan = row.plan(seed) if row.plan is not None else None
    shape: Dict[str, Any] = {"durable": row.durable}
    if plan is not None:
        shape["faults"] = plan
    if "shards" in sizes:
        shape["shards"] = sizes["shards"]
    this = Run(row, seed, sizes, plan,
               TOPOLOGIES[row.topology](settings, **shape))
    verdict = Verdict(row.name, seed, dict.fromkeys(row.checks, False),
                      unexpected=this.unexpected, facts=this.facts,
                      replay=replay)
    threads: List[threading.Thread] = []
    try:
        _drive(this, rng, threads)
    except Exception as exc:          # noqa: BLE001 — verdict, not crash
        this.unexpected.append(f"harness: {type(exc).__name__}: {exc}")
    finally:
        this.stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        this.topology.stop()
    _judge(this, verdict)
    return verdict


def _drive(run: Run, rng: random.Random,
           threads: List[threading.Thread]) -> None:
    """Phases 1-7: everything that needs the topology up."""
    row, plan = run.row, run.plan
    workload = WORKLOADS[row.workload]
    if plan is not None:
        plan.disarm()                  # setup runs fault-free
    run.port = run.topology.start()
    if workload.setup is not None:
        workload.setup(run)
    if plan is not None:
        plan.arm()
    if workload.start is not None:
        workload.start(run)
    if workload.worker is not None:
        run.tallies = [Tally() for _ in range(run.sizes[workload.size])]
        threads.extend(
            threading.Thread(
                target=workload.worker, name=f"{row.name}-w{idx}",
                args=(run, idx, tally))
            for idx, tally in enumerate(run.tallies))
    for thread in threads:
        thread.start()
    if row.kill is not None:
        time.sleep(rng.uniform(*row.kill.after_s))
        run.topology.kill(row.kill.victim)   # no release, no goodbye
        run.killed.set()
        outage_s = rng.uniform(*row.kill.outage_s)
        time.sleep(outage_s)           # the outage the clock must count
        run.facts["downtime_ns"] = int(outage_s * 1e9)
        run.facts["recovered_port"] = \
            run.topology.recover(row.kill.victim)
    if workload.settle is not None:
        workload.settle(run)
    deadline = time.monotonic() + JOIN_TIMEOUT_S
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            run.unexpected.append(
                f"worker {thread.name} hung past deadline")
    if workload.finish is not None:
        workload.finish(run)
    if plan is not None:
        plan.disarm()                  # drain runs fault-free
    # Let the sweepers close anything still open (a worker that died
    # between attach and detach), then photograph the timelines.
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while True:
        run.audits = run.topology.audits()
        if time.monotonic() > deadline or not any(
                audit["open_windows"] for audit in run.audits.values()):
            break
        time.sleep(min(2 * row.sweep_period_ns / 1e9, 0.05))


def _judge(run: Run, verdict: Verdict) -> None:
    """Phase 8, on what phases 1-7 left — also after they failed."""
    row, plan, facts = run.row, run.plan, run.facts
    for tally in run.tallies:
        verdict.tally.merge(tally)
    run.unexpected.extend(verdict.tally.unexpected)
    verdict.slack_ns = _slack_ns(run)
    for scope in row.scopes:
        verdict.reports.update(SCOPES[scope](run))
    for name in row.checks:
        verdict.checks[name] = CHECKS[name](run)
    if plan is not None:
        verdict.plan = {"seed": plan.seed,
                        "rules": [r.to_dict() for r in plan.minimal()]}
        facts["faults_by_site"] = dict(Counter(
            inj.site for inj in plan.fired()))
    facts["resumes"] = sum(c.resumes for c in run.clients)
    facts["sessions_lost"] = sum(c.sessions_lost for c in run.clients)
    if row.kill is None:
        # One daemon lived through the run: what its clients were
        # told, and the fault events its own ring kept (may undercount
        # faults_by_site if the ring wrapped).
        facts["forced_detach_events"] = sum(
            c.forced_detaches for c in run.clients)
        facts["faults_in_audit"] = dict(Counter(
            str(e["reason"]).split(" [", 1)[0]
            for audit in run.audits.values() for e in audit["events"]
            if e.get("kind") == "fault"))
    else:
        # What recovery and the sweepers force-closed, per the audits,
        # and what the victim's recovery reported.
        facts["forced_detach_events"] = sum(
            len(_forced(audit)) for audit in run.audits.values())
        facts["recovery"] = run.victim_audit["recovery"]
        facts["pages_repaired"] = \
            facts["recovery"].get("pages_repaired", 0)


# -- the CLI --------------------------------------------------------------

def run_matrix(scenario: str, seeds: List[int], *, jobs: int = 4,
               **sizes: int) -> List[Verdict]:
    """Run a seed matrix with bounded parallelism; verdicts ordered by
    seed, each printed as it lands."""
    def one(seed: int) -> Verdict:
        verdict = run(scenario, seed, **sizes)
        print(verdict.describe(), flush=True)
        return verdict

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        return list(pool.map(one, seeds))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.chaos",
        description="One seeded chaos scenario against a live terpd "
                    "topology; exit 0 iff the verdict is OK.",
        epilog="scenarios:\n" + "\n".join(
            f"  {row.name:<13}{row.summary}\n{'':15}on {row.topology}; "
            f"judged by {', '.join(row.scopes + row.checks)}"
            for row in SCENARIOS.values()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("scenario", nargs="?", default="chaos",
                        choices=list(SCENARIOS),
                        help="a row of SCENARIOS (default: chaos)")
    parser.add_argument("--seed", default="random",
                        help="integer seed, or 'random' (default)")
    parser.add_argument("--matrix", type=int, default=None, metavar="N",
                        help="run seeds 0..N-1 instead of one seed")
    parser.add_argument("--jobs", type=int, default=4,
                        help="matrix parallelism (default: %(default)s)")
    parser.add_argument("--out", default=None,
                        help="write the full verdict (a list under "
                             "--matrix) to this JSON file")
    owners: Dict[str, List[str]] = {}
    for row in SCENARIOS.values():
        for size, default in row.sizes.items():
            owners.setdefault(size, []).append(
                f"{row.name} (default: {default})")
    for size, rows in owners.items():
        parser.add_argument(f"--{size}", type=int, default=None,
                            help="a size of " + ", ".join(rows))
    args = parser.parse_args(argv)
    row = SCENARIOS[args.scenario]
    sizes = {size: getattr(args, size) for size in owners
             if getattr(args, size) is not None}
    if not set(sizes) <= set(row.sizes):
        parser.error(f"{row.name} takes "
                     f"{' '.join('--' + n for n in row.sizes) or 'no size'}")
    if args.matrix is not None:
        verdicts = run_matrix(row.name, list(range(args.matrix)),
                              jobs=args.jobs, **sizes)
        print(f"{row.name} matrix: {sum(v.ok for v in verdicts)}"
              f"/{args.matrix} seeds OK")
        document: Any = [v.to_dict() for v in verdicts]
    else:
        seed = int.from_bytes(os.urandom(4), "big") \
            if args.seed == "random" else int(args.seed)
        verdicts = [run(row.name, seed, **sizes)]
        print(verdicts[0].describe())
        document = verdicts[0].to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        print(f"verdict written to {args.out}")
    return 0 if all(v.ok for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
