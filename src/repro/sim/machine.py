"""The discrete-event machine: threads, costs, sweeping, exposure.

The machine runs one simulated process: N workload threads (each a
generator of :mod:`work events <repro.sim.events>`) on N cores, under
an insertion policy and a semantics/architecture engine.  It is the
reproduction's stand-in for Sniper: rather than simulating a pipeline,
it charges the Table II event costs — which is where all of the
paper's measured effects come from.

Cost charging rules (per configuration):

* performed attach/detach: full syscall cost (+TLB shootdown on
  detach);
* silent conditional ops: 27 cycles on the TERP architecture, or —
  when ``silent_ops_are_syscalls`` (the TM configuration) — the full
  syscall cost, since without hardware support every conditional call
  traps into the kernel;
* randomization: 3718 cycles + shootdown, charged to *every* running
  thread (all threads are suspended);
* each PMO access: 1-cycle permission-matrix check, plus TLB re-fill
  penalties for the first burst after a shootdown;
* a thread blocked by Basic semantics polls at 1µs intervals, burning
  wall-clock time (Figure 11's "basic semantics" bars).

Exposure windows are recorded exactly (EW per PMO, TEW per
thread x PMO) through the TERP runtime's monitor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.arch.cond_engine import TerpArchEngine
from repro.arch.params import CostBreakdown, CostModel, DEFAULT_PARAMS, SimParams
from repro.core.errors import SimulationError
from repro.core.events import Trace
from repro.core.permissions import Access
from repro.core.runtime import TerpRuntime
from repro.core.semantics import ActionKind, Outcome, SemanticsEngine
from repro.core.units import cycles_to_ns, us
from repro.pmo.pool import PmoManager
from repro.sim.events import Burst, Compute, RegionEnd, TxBegin, TxEnd
from repro.sim.policy import InsertionPolicy, Op, OpKind
from repro.sim.stats import RunResult, collect_exposure

#: Poll interval for a thread blocked on a Basic-semantics attach.
BLOCK_POLL_NS = us(1)


@dataclass
class _ThreadState:
    tid: int
    events: Iterator
    policy: InsertionPolicy
    clock_ns: int = 0
    baseline_ns: int = 0
    blocked_ns: int = 0
    #: protection ops queued before the current event executes
    pending_ops: List[Op] = field(default_factory=list)
    #: the event awaiting execution once pending_ops drain
    current_event: object = None
    done: bool = False


class Machine:
    """One simulated process run."""

    def __init__(self, *,
                 engine: SemanticsEngine,
                 policy_factory: Callable[[], InsertionPolicy],
                 pmo_sizes: Dict[str, int],
                 params: SimParams = DEFAULT_PARAMS,
                 silent_ops_are_syscalls: bool = False,
                 randomize_on_reattach: bool = False,
                 detailed_tlb: bool = False,
                 num_cores: Optional[int] = None,
                 seed: int = 2022,
                 trace: Optional[Trace] = None) -> None:
        self.params = params
        self.cost_model = CostModel(params)
        self.engine = engine
        self.policy_factory = policy_factory
        self.silent_ops_are_syscalls = silent_ops_are_syscalls
        self.randomize_on_reattach = randomize_on_reattach
        #: detailed_tlb=True simulates each burst's page translations
        #: through a per-core TLB hierarchy instead of the flat
        #: post-shootdown refill charge — slower but structurally
        #: faithful (used by the fidelity tests).
        self.detailed_tlb = detailed_tlb
        self.manager = PmoManager()
        self.runtime = TerpRuntime(engine, manager=self.manager,
                                   rng=random.Random(seed),
                                   trace=trace)
        self.pmos = {name: self.manager.create(name, size)
                     for name, size in pmo_sizes.items()}
        self.breakdown = CostBreakdown()
        self._threads: Dict[int, _ThreadState] = {}
        self._ever_attached: set = set()
        #: (tid, pmo) pairs whose TLB entries were shot down
        self._tlb_cold: set = set()
        #: per-thread TLB hierarchies (detailed mode)
        self._tlbs: Dict[int, "TlbHierarchy"] = {}
        #: core count (Table II: 4); threads beyond it time-share
        self.num_cores = num_cores if num_cores is not None \
            else params.num_cores
        self._core_free_at: List[int] = []

    # -- running ----------------------------------------------------------

    def run(self, threads: Dict[int, Iterable]) -> RunResult:
        """Execute the workload threads to completion."""
        self._threads = {
            tid: _ThreadState(tid, iter(events), self.policy_factory())
            for tid, events in threads.items()
        }
        active = list(self._threads.values())
        self._core_free_at = [0] * self.num_cores
        oversubscribed = len(active) > self.num_cores
        while any(not t.done for t in active):
            # Pick the earliest-clock runnable thread (core-accurate
            # for 1:1 thread:core mapping; with more threads than
            # cores, a thread first waits for a free core).
            state = min((t for t in active if not t.done),
                        key=lambda t: t.clock_ns)
            if oversubscribed:
                core = min(range(self.num_cores),
                           key=lambda c: self._core_free_at[c])
                start = max(state.clock_ns, self._core_free_at[core])
                state.clock_ns = start
                before = start
                self._maybe_sweep(state.clock_ns)
                self._step(state)
                self._core_free_at[core] = max(state.clock_ns, before)
            else:
                self._maybe_sweep(state.clock_ns)
                self._step(state)
        wall_ns = max((t.clock_ns for t in active), default=0)
        if oversubscribed:
            # Ideal parallel baseline: total work packed onto the
            # available cores.
            total_work = sum(t.baseline_ns for t in active)
            baseline_ns = max(
                max((t.baseline_ns for t in active), default=0),
                -(-total_work // self.num_cores))
        else:
            baseline_ns = max((t.baseline_ns for t in active),
                              default=0)
        self.runtime.finish(max(wall_ns, self.runtime.now_ns))
        per_pmo = collect_exposure(self.runtime.monitor, wall_ns,
                                   len(active))
        return RunResult(
            wall_ns=wall_ns,
            baseline_ns=baseline_ns,
            breakdown=self.breakdown,
            counters=self.runtime.counters,
            per_pmo=per_pmo,
            blocked_ns=sum(t.blocked_ns for t in active),
            num_threads=len(active),
            arch_cases=(self.engine.cases
                        if isinstance(self.engine, TerpArchEngine) else None),
        )

    # -- one scheduling step -------------------------------------------------

    def _step(self, state: _ThreadState) -> None:
        if state.pending_ops:
            op = state.pending_ops[0]
            finished = self._execute_op(state, op)
            if finished:
                state.pending_ops.pop(0)
            return
        if state.current_event is not None:
            event, state.current_event = state.current_event, None
            self._execute_event(state, event)
            return
        try:
            event = next(state.events)
        except StopIteration:
            state.pending_ops = state.policy.at_end(state.clock_ns)
            if not state.pending_ops:
                state.done = True
            else:
                state.current_event = _EndMarker
            return
        state.pending_ops = state.policy.before_event(event, state.clock_ns)
        state.current_event = event

    def _execute_event(self, state: _ThreadState, event) -> None:
        if event is _EndMarker:
            state.done = True
            return
        if isinstance(event, Compute):
            self._compute(state, event.ns)
        elif isinstance(event, Burst):
            self._execute_burst(state, event)
        elif isinstance(event, (TxBegin, TxEnd, RegionEnd)):
            pass  # markers only; the policy already consumed them
        else:
            raise SimulationError(f"unknown work event {event!r}")

    def _compute(self, state: _ThreadState, ns: int) -> None:
        """Advance through a compute stretch, stopping at every EW
        expiry so the hardware sweeper acts on time (it ticks every
        microsecond in hardware; the DES must not jump deadlines)."""
        state.baseline_ns += ns
        end = state.clock_ns + ns
        if isinstance(self.engine, TerpArchEngine):
            while True:
                deadline = self.engine.next_expiry_ns()
                if deadline is None:
                    break
                # Honour the hardware sweep period: the sweeper acts at
                # the first tick at/after the expiry.
                tick = max(deadline, self.engine._last_sweep_ns
                           + self.engine.sweep_period_ns)
                if tick >= end:
                    break
                state.clock_ns = max(state.clock_ns, tick)
                pre_sweep = state.clock_ns
                self._run_sweep(state.clock_ns)
                # Sweep-initiated work (forced detaches, randomize
                # suspensions) steals core time from the compute
                # stretch rather than overlapping it.
                end += state.clock_ns - pre_sweep
        state.clock_ns = max(state.clock_ns, end)

    # -- protection ops ---------------------------------------------------------

    def _execute_op(self, state: _ThreadState, op: Op) -> bool:
        """Run one attach/detach; returns False if the thread blocked."""
        pmo = self.pmos[op.pmo]
        now = max(state.clock_ns, self.runtime.now_ns)
        state.clock_ns = now
        if op.kind is OpKind.ATTACH:
            result = self.runtime.attach(state.tid, pmo, op.access, now)
            decision = result.decision
            if decision.outcome is Outcome.BLOCKED:
                state.clock_ns += BLOCK_POLL_NS
                state.blocked_ns += BLOCK_POLL_NS
                return False
            if decision.outcome is Outcome.ERROR:
                raise SimulationError(
                    f"policy produced invalid attach: {decision.reason}")
            self._charge_attach(state, decision.performed, pmo)
            if decision.performed:
                # The window becomes usable only once the attach
                # syscall completes: exclude its processing time.
                mon = self.runtime.monitor
                if mon.ew.is_open(pmo.pmo_id):
                    mon.ew.shift_open(pmo.pmo_id, state.clock_ns)
                if mon.tew.is_open((state.tid, pmo.pmo_id)):
                    mon.tew.shift_open((state.tid, pmo.pmo_id),
                                       state.clock_ns)
        else:
            decision = self.runtime.detach(state.tid, pmo, now)
            if decision.outcome is Outcome.ERROR:
                raise SimulationError(
                    f"policy produced invalid detach: {decision.reason}")
            self._charge_detach(state, decision.performed, pmo)
        self._charge_decision_side_effects(state, decision, pmo)
        return True

    def _charge_attach(self, state: _ThreadState, performed: bool,
                       pmo) -> None:
        if performed:
            cycles = self.cost_model.charge_attach(self.breakdown,
                                                   performed=True)
            if self.randomize_on_reattach and \
                    pmo.pmo_id in self._ever_attached:
                # MERR randomizes the mapping at every re-attach.
                cycles += self.cost_model.charge_randomize(self.breakdown)
            self._ever_attached.add(pmo.pmo_id)
        elif self.silent_ops_are_syscalls:
            # TM: the conditional instruction is emulated by a syscall.
            cycles = self.params.attach_syscall
            self.breakdown.add("cond", cycles)
        else:
            cycles = self.cost_model.charge_attach(self.breakdown,
                                                   performed=False)
        state.clock_ns += cycles_to_ns(cycles, self.params.freq_ghz)

    def _charge_detach(self, state: _ThreadState, performed: bool,
                       pmo) -> None:
        if performed:
            cycles = self.cost_model.charge_detach(self.breakdown,
                                                   performed=True)
            self._mark_tlb_cold(pmo.pmo_id)
        elif self.silent_ops_are_syscalls:
            cycles = self.params.detach_syscall
            self.breakdown.add("cond", cycles)
        else:
            cycles = self.cost_model.charge_detach(self.breakdown,
                                                   performed=False)
        state.clock_ns += cycles_to_ns(cycles, self.params.freq_ghz)

    def _charge_decision_side_effects(self, state: _ThreadState,
                                      decision, pmo) -> None:
        for action in decision.actions:
            if action.kind is ActionKind.RANDOMIZE:
                self._charge_randomize(action.pmo_id)

    def _charge_randomize(self, pmo_id) -> None:
        """Randomization suspends all threads: everyone pays."""
        running = [t for t in self._threads.values() if not t.done]
        cycles = self.cost_model.charge_randomize(
            self.breakdown, num_threads_suspended=len(running))
        delta = cycles_to_ns(cycles, self.params.freq_ghz)
        for t in running:
            t.clock_ns += delta
        self._mark_tlb_cold(pmo_id)

    def _mark_tlb_cold(self, pmo_id) -> None:
        for tid in self._threads:
            self._tlb_cold.add((tid, pmo_id))

    # -- bursts --------------------------------------------------------------

    def _execute_burst(self, state: _ThreadState, burst: Burst) -> None:
        pmo = self.pmos[burst.pmo]
        now = max(state.clock_ns, self.runtime.now_ns)
        state.clock_ns = now
        need = Access.RW if burst.write_fraction > 0 else Access.READ
        decision = self.runtime.access(state.tid, pmo, 0, need, now)
        if decision.outcome in (Outcome.FAULT_SEGV, Outcome.FAULT_PERM):
            raise SimulationError(
                f"burst faulted (policy bug): {decision.reason} "
                f"thread={state.tid} pmo={burst.pmo}")
        base_cycles = burst.n_accesses * burst.base_cycles
        base_ns = cycles_to_ns(base_cycles, self.params.freq_ghz)
        state.baseline_ns += base_ns
        state.clock_ns += base_ns
        # Protection adds a matrix check per access ...
        check_cycles = burst.n_accesses * self.params.matrix_check
        self.breakdown.add("other", check_cycles)
        extra = check_cycles
        # ... and TLB re-fill penalties after a shootdown.
        key = (state.tid, pmo.pmo_id)
        if self.detailed_tlb:
            extra += self._detailed_tlb_cycles(state, burst, pmo)
        elif key in self._tlb_cold:
            self._tlb_cold.discard(key)
            refill = min(burst.unique_pages, burst.n_accesses) * \
                self.params.tlb_miss_penalty
            self.breakdown.add("other", refill)
            extra += refill
        state.clock_ns += cycles_to_ns(extra, self.params.freq_ghz)

    def _detailed_tlb_cycles(self, state: _ThreadState, burst: Burst,
                             pmo) -> int:
        """Simulate the burst's translations through a real TLB.

        A shootdown marker for (thread, pmo) invalidates the owner's
        entries in that thread's hierarchy first, so the next burst
        pays genuine walk penalties.  Extra cycles beyond the 1-cycle
        L1-hit baseline (already inside ``base_cycles``) are charged.
        """
        from repro.mem.tlb import TlbHierarchy
        tlb = self._tlbs.get(state.tid)
        if tlb is None:
            tlb = TlbHierarchy()
            self._tlbs[state.tid] = tlb
        owner = str(pmo.pmo_id)
        key = (state.tid, pmo.pmo_id)
        if key in self._tlb_cold:
            self._tlb_cold.discard(key)
            tlb.invalidate_owner(owner)
        mapping = self.runtime.space.mapping_of(pmo.pmo_id)
        base_va = mapping.base_va if mapping else 0
        from repro.core.units import PAGE_SIZE
        pages = max(1, burst.unique_pages)
        extra = 0
        for i in range(min(burst.n_accesses, 4 * pages)):
            va = base_va + (i % pages) * PAGE_SIZE
            extra += tlb.access(va, owner) - tlb.L1_LATENCY
        self.breakdown.add("other", extra)
        return extra

    # -- the hardware sweeper ------------------------------------------------------

    def _maybe_sweep(self, now_ns: int) -> None:
        if not isinstance(self.engine, TerpArchEngine):
            return
        if not self.engine.sweep_due(now_ns):
            return
        self._run_sweep(now_ns)

    def _run_sweep(self, now_ns: int) -> None:
        decisions = self.engine.sweep(now_ns)
        if decisions:
            # The sweep acts at global hardware time: advance the
            # runtime clock so no later (per-thread) operation can be
            # timestamped before the sweep's window transitions.
            self.runtime._advance(max(now_ns, self.runtime.now_ns))
        for decision in decisions:
            pmo_id = decision.actions[0].pmo_id
            pmo = self.manager.get(pmo_id)
            when = max(now_ns, self.runtime.now_ns)
            # _apply installs the unmap/randomize and updates the
            # monitor and counters; costs are charged below.
            self.runtime._apply(decision, pmo, when)
            if decision.performed:
                # Forced detach: syscall initiated by hardware; charge
                # the sweeping core (the earliest-clock thread).
                cycles = self.cost_model.charge_detach(self.breakdown,
                                                       performed=True)
                victim = min((t for t in self._threads.values()
                              if not t.done),
                             key=lambda t: t.clock_ns, default=None)
                if victim is not None:
                    victim.clock_ns += cycles_to_ns(cycles,
                                                    self.params.freq_ghz)
                self._mark_tlb_cold(pmo_id)
                self.runtime.counters.detach_syscalls += 1
            else:
                self._charge_randomize(pmo_id)


class _EndMarkerType:
    def __repr__(self) -> str:
        return "<end>"


_EndMarker = _EndMarkerType()
