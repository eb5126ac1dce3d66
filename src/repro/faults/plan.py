"""Seeded, deterministic fault injection: rules, plans, and sites.

A :class:`FaultPlan` is the single chaos source for a whole stack:
the PMO library, the arch engine, and the terpd server each hold a
reference to the same plan and call :meth:`FaultPlan.fire` at their
registered *injection sites*.  A site is a dotted string naming the
place in the stack where a failure may be injected:

==========================  ================================================
site                        effect when a rule fires
==========================  ================================================
``lib.storage_write``       the checked write raises :class:`InjectedFault`
                            (kind ``error``) or :class:`InjectedCrash`
                            (kind ``crash`` — the terpd server treats it
                            as the daemon dying mid-request)
``lib.psync_stall``         ``psync`` sleeps ``delay_ns`` before running
``engine.sweep_stall``      one sweeper pass is skipped entirely
``engine.buffer_full``      attach fails as if the circular buffer were
                            full (transient, retryable)
``engine.domain_exhausted``  attach fails as if the MPK key pool were
                            exhausted (transient, retryable)
``server.conn_drop``        the connection is severed before the request
                            runs (the client's retry executes it once)
``server.partial_frame``    the request runs, half its response frame is
                            written, then the connection is severed
``server.delay_response``   the response is delayed ``delay_ns``
``server.session_crash``    the session is killed outright (windows
                            force-closed, no resume possible)
``store.torn_page``         a home-slot write lands half its page under
                            the full page's CRC; the journal is kept as
                            the repair source
``store.bit_rot``           a flushed page has one bit flipped at rest
                            after its journal retired (unrepairable:
                            the PMO is quarantined)
``store.commit_stall``      the group-commit flusher sleeps ``delay_ns``
                            with its batch staged
==========================  ================================================

Determinism: every rule owns its own ``random.Random`` seeded from
``(plan seed, rule index, site)``, so whether a given *arrival* at a
site fires depends only on the plan seed and the arrival order at that
site — never on wall-clock time or on traffic at other sites.  Replays
of a single-client schedule are exactly reproducible; multi-client
schedules are reproducible up to request interleaving (the plan's
decisions for any given interleaving are fixed).

Every fire is recorded in :attr:`FaultPlan.injections` so a failing
test can print the *minimal plan* — the rules that actually fired —
alongside the seed for replay.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import TerpError
from repro.core.record import field, record

__all__ = ["FaultRule", "FaultPlan", "Injection", "NO_FAULTS", "SITES"]

#: The registered injection sites (documentation + validation).
SITES = (
    "lib.storage_write",
    "lib.psync_stall",
    "engine.sweep_stall",
    "engine.buffer_full",
    "engine.domain_exhausted",
    "server.conn_drop",
    "server.partial_frame",
    "server.delay_response",
    "server.session_crash",
    "store.torn_page",
    "store.bit_rot",
    "store.commit_stall",
)


@record(frozen=True)
class FaultRule:
    """One declarative injection rule.

    ``site``         where to inject (one of :data:`SITES`).
    ``kind``         site-specific flavour (``error``/``crash`` for
                     storage writes; free-form elsewhere — it is
                     recorded on each :class:`Injection`).
    ``probability``  chance that an eligible arrival fires.
    ``count``        total fires allowed (``None`` = unlimited).
    ``after``        eligible arrivals skipped before the first fire
                     may happen (crash-torture's "K-th write").
    ``delay_ns``     stall length for delay-flavoured sites.
    """

    site: str
    kind: str = "error"
    probability: float = 1.0
    count: Optional[int] = None
    after: int = 0
    delay_ns: int = 0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise TerpError(f"unknown injection site {self.site!r}; "
                            f"known sites: {', '.join(SITES)}")
        if not 0.0 <= self.probability <= 1.0:
            raise TerpError("probability must be within [0, 1]")
        if self.count is not None and self.count < 0:
            raise TerpError("count must be non-negative")
        if self.after < 0:
            raise TerpError("after must be non-negative")
        if self.delay_ns < 0:
            raise TerpError("delay_ns must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        return {"site": self.site, "kind": self.kind,
                "probability": self.probability, "count": self.count,
                "after": self.after, "delay_ns": self.delay_ns}


@record(frozen=True)
class Injection:
    """One fault that actually fired: the replay/audit record."""

    seq: int
    site: str
    kind: str
    rule_index: int
    arrival: int
    delay_ns: int = 0


@record
class _RuleState:
    """Mutable per-rule bookkeeping (the rule itself is frozen)."""

    rule: FaultRule
    index: int
    rng: random.Random
    arrivals: int = 0
    fires: int = 0

    def exhausted(self) -> bool:
        return self.rule.count is not None and \
            self.fires >= self.rule.count


@record
class FaultPlan:
    """A seeded set of injection rules shared by a whole stack.

    Thread-safe: the terpd event loop, client threads driving the
    library directly, and the sweeper may all hit sites concurrently.
    ``fire`` is the only hot-path entry point; with no rules for a
    site it is a dictionary miss and a ``None`` return.
    """

    seed: int = 0
    rules: List[FaultRule] = field(default_factory=list)
    #: called with each :class:`Injection` as it fires — the terpd
    #: server wires this to the audit timeline so injected faults are
    #: first-class events in the exposure record.
    on_fire: Optional[Callable[[Injection], None]] = None

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._armed = True
        self._seq = 0
        self.injections: List[Injection] = []
        self._by_site: Dict[str, List[_RuleState]] = {}
        for index, rule in enumerate(self.rules):
            state = _RuleState(
                rule=rule, index=index,
                rng=random.Random(f"{self.seed}:{index}:{rule.site}"))
            self._by_site.setdefault(rule.site, []).append(state)

    # -- arming (the crash-torture harness scopes injection windows) ------

    def disarm(self) -> None:
        """Suspend all injection (arrivals are not even counted)."""
        with self._lock:
            self._armed = False

    def arm(self) -> None:
        with self._lock:
            self._armed = True

    # -- the hot path ------------------------------------------------------

    def fire(self, site: str) -> Optional[FaultRule]:
        """One arrival at ``site``; the matching rule if a fault fires.

        Rules are consulted in declaration order; the first that fires
        wins (its :class:`Injection` is recorded and ``on_fire`` runs).
        """
        states = self._by_site.get(site)
        if not states:
            return None
        fired_rule: Optional[FaultRule] = None
        injection: Optional[Injection] = None
        with self._lock:
            if not self._armed:
                return None
            for state in states:
                rule = state.rule
                state.arrivals += 1
                if state.exhausted():
                    continue
                if state.arrivals <= rule.after:
                    continue
                if rule.probability < 1.0 and \
                        state.rng.random() >= rule.probability:
                    continue
                state.fires += 1
                self._seq += 1
                injection = Injection(
                    seq=self._seq, site=site, kind=rule.kind,
                    rule_index=state.index,
                    arrival=state.arrivals, delay_ns=rule.delay_ns)
                self.injections.append(injection)
                fired_rule = rule
                break
            hook = self.on_fire
        if injection is not None and hook is not None:
            hook(injection)
        return fired_rule

    # -- reporting ---------------------------------------------------------

    def fired(self, site: Optional[str] = None) -> List[Injection]:
        """Injections so far, optionally for one site."""
        with self._lock:
            records = list(self.injections)
        if site is not None:
            records = [r for r in records if r.site == site]
        return records

    def minimal(self) -> List[FaultRule]:
        """The rules that actually fired — the minimal replay plan."""
        with self._lock:
            indices = sorted({r.rule_index for r in self.injections})
        return [self.rules[i] for i in indices]


#: The shared do-nothing plan: ``fire`` is a dict miss, nothing more.
NO_FAULTS = FaultPlan(seed=0, rules=[])
