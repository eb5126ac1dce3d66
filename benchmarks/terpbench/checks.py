"""The correctness gate: run after the timed window, in no latency.

* every cycle's read-back equalled what was written (tenants count
  mismatches as they go);
* at window end nothing is left open and, outside ``sweep_hold``,
  nothing was force-detached;
* the drained audit timeline passes I1 (bounded exposure), I2 (no
  overlap), I3 (attributed force) and I5 (eventual closure);
* durable workloads: SIGKILL the serving daemon, restart on the same
  pool dir (``file_*``) or promote the standby (``repl_psync``), and
  read back every page a tenant saw a psync ack for — the per-cycle
  counter stamped in each page may not be older than the acked one (I7).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.faults.chaos import SCHEDULING_SLACK_NS
from repro.faults.invariants import check_acked_writes, check_events
from repro.service.client import SyncTerpClient

from .workloads import (
    HOLDER_BUDGET_US, PAGE, CycleTenant, HolderTenant)

SESSION_BUDGET_NS = 2_000_000_000
SWEEP_PERIOD_NS = 5_000_000
#: sweeper cadence + host scheduling; the same allowance the chaos
#: harnesses grant.  How late enforcement *typically* is belongs to the
#: ``tew_overshoot_*`` metrics, not to this gate.
SLACK_NS = 6 * SWEEP_PERIOD_NS + SCHEDULING_SLACK_NS
AUDIT_RING = 65536


def _retained_whole(events: List[Dict[str, Any]], recorded: int
                    ) -> List[Dict[str, Any]]:
    """If the audit ring wrapped, drop closes whose attach rolled off,
    so replay sees only windows it can pair."""
    if recorded <= len(events):
        return events
    opened = set()
    kept = []
    for event in events:
        key = (event.get("entity"), event.get("pmo_id"))
        if event["kind"] == "attach":
            opened.add(key)
        elif event["kind"] in ("detach", "forced-detach") \
                and key not in opened:
            continue
        kept.append(event)
    return kept


def _audit(session: Any) -> List[str]:
    admin = session.admin
    report = admin.metrics()
    trace = admin.trace(limit=AUDIT_RING)
    violations: List[str] = []
    holding = any(isinstance(t, HolderTenant) for t in session.tenants)
    if not holding and report["global"]["forced_detaches"]:
        violations.append(
            f"{report['global']['forced_detaches']} forced detach(es) "
            "on a workload whose tenants stay inside their budget")
    events = _retained_whole(trace["audit"], report["audit"]["events"])
    held = [e for e in events if str(e.get("pmo", "")).startswith("hold")]
    rest = [e for e in events if not str(e.get("pmo", ""))
            .startswith("hold")]
    for part, budget, still_open in (
            (held, HOLDER_BUDGET_US * 1_000, None),
            (rest, SESSION_BUDGET_NS, trace["open_windows"])):
        verdict = check_events(part, ew_budget_ns=budget,
                               slack_ns=SLACK_NS,
                               open_windows=still_open)
        violations.extend(str(v) for v in verdict.violations[:5])
    return violations


def _durability(session: Any) -> List[str]:
    """Crash the serving daemon and read the acked pages back from
    whatever takes over."""
    topology = session.topology
    session.admin.close()
    topology.kill_primary()
    if topology.kind == "replicated":
        topology.promote_standby()
    else:
        topology.restart_primary()
    acked: Dict[Tuple[int, int], int] = {}
    observed: Dict[Tuple[int, int], Any] = {}
    with SyncTerpClient(port=topology.port, user="bench-verify") as reader:
        for tenant in session.tenants:
            if not isinstance(tenant, CycleTenant):
                continue
            reader.attach(tenant.pmo, access="r")
            pages = sorted(tenant.acked)
            got = reader.pipeline([
                ("read", {"oid": tenant.base.add(p * PAGE).pack(), "n": 8})
                for p in pages])
            for page, result in zip(pages, got):
                acked[(tenant.index, page)] = tenant.acked[page]
                observed[(tenant.index, page)] = \
                    struct.unpack("<Q", result["data"])[0]
            reader.detach(tenant.pmo)
    if not acked:
        return ["durability check found no acked write to verify"]
    verdict = check_acked_writes(observed, acked)
    return [str(v) for v in verdict.violations[:5]]


def run(session: Any) -> List[str]:
    """Every violation found; empty means the outputs were correct."""
    violations: List[str] = []
    mismatches = sum(t.mismatches for t in session.tenants)
    if mismatches:
        violations.append(f"{mismatches} read-back(s) differed from "
                          "what was written")
    if not any(t.samples for t in session.tenants):
        violations.append("no tenant completed a cycle")
    violations.extend(_audit(session))
    if session.workload.topology in ("file", "replicated"):
        violations.extend(_durability(session))
    return violations
