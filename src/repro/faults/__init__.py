"""Deterministic fault injection and the chaos/invariant harness.

Three pieces:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: seeded, declarative
  injection rules fired at registered sites across the whole stack
  (library, durable store, arch engine, terpd server).
* :mod:`repro.faults.invariants` — the temporal-protection theorem as
  executable checks over the audit timeline (I1-I6), plus I7, zero
  acknowledged-write loss across a failover.
* :mod:`repro.faults.chaos` — the chaos engine: every kill-and-check
  run is a row of its ``SCENARIOS`` table (``chaos``, ``restart``,
  ``restart-proc``, ``cluster``, ``failover``), run by one runner over
  the topologies of :mod:`repro.topology` and judged into one
  ``Verdict``.  Also the ``python -m repro.faults.chaos`` CLI.  Not
  imported here: the daemon imports this package for its fault sites,
  and the engine is a harness's to import.
"""

from repro.faults.invariants import (
    InvariantReport, Violation, check_events, check_timeline)
from repro.faults.plan import (
    NO_FAULTS, SITES, FaultPlan, FaultRule, Injection)

__all__ = [
    "FaultPlan", "FaultRule", "Injection", "NO_FAULTS", "SITES",
    "InvariantReport", "Violation", "check_events", "check_timeline",
]
