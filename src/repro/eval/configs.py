"""Evaluation configurations (Section VI "Configurations").

The paper evaluates three schemes, plus Figure 11's ablations:

* **MM** — MERR insertion on the MERR architecture: manually inserted
  pairs, each executed fully as a system call, randomized placement on
  every (re)attach, process-wide Basic-style semantics.
* **TM** — TERP insertion on the MERR architecture: compiler-inserted
  conditional attach/detach with a TEW target, but every conditional
  call still traps (syscall cost).
* **TT** — TERP insertion on the TERP architecture: circular buffer,
  window combining, 27-cycle silent operations.
* **TT_BASIC** — TERP-frequency insertion under Basic semantics
  (Figure 11 "basic semantics"): one thread at a time can hold a PMO.
* **TT_COND** — conditional instructions without window combining
  (Figure 11 "+Cond").

Each is one row of :data:`SCHEMES`; a configuration builds a fresh
engine/policy pair per run (state is never shared across runs).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.arch.cond_engine import TerpArchEngine
from repro.core.errors import ConfigurationError
from repro.core.record import record
from repro.core.semantics import BasicSemantics, EwConsciousSemantics
from repro.core.units import us
from repro.sim.machine import Machine
from repro.sim.policy import CompilerTerpPolicy, ManualMerrPolicy

#: The paper's window targets.
DEFAULT_EW_US = 40.0
DEFAULT_TEW_US = 2.0


@record(frozen=True)
class Scheme:
    """One scheme: its label, engine, insertion policy and hardware."""

    #: formatted with the targets in µs, ``{ew}`` and ``{tew}``
    label: str
    #: EW target (ns) -> the semantics engine
    engine: Callable
    #: (EW target, TEW target) in ns -> one thread's insertion policy
    policy: Callable
    #: the MERR architecture: a real (re)attach randomizes placement
    randomize_on_reattach: bool = False
    #: ... and a conditional call traps (TM)
    silent_ops_are_syscalls: bool = False


def _terp_insertion(ew_ns: int, tew_ns: int) -> CompilerTerpPolicy:
    return CompilerTerpPolicy(tew_ns)


SCHEMES: Dict[str, Scheme] = {
    "MM": Scheme("MERR insertion + MERR arch ({ew:g}us EW)",
                 lambda ew: BasicSemantics(blocking=True),
                 lambda ew, tew: ManualMerrPolicy(ew),
                 randomize_on_reattach=True),
    "TM": Scheme("TERP insertion + MERR arch ({ew:g}us EW, {tew:g}us TEW)",
                 EwConsciousSemantics, _terp_insertion,
                 randomize_on_reattach=True, silent_ops_are_syscalls=True),
    "TT": Scheme("TERP insertion + TERP arch ({ew:g}us EW, {tew:g}us TEW)",
                 TerpArchEngine, _terp_insertion),
    "TT_BASIC": Scheme("TERP insertion, Basic semantics (Fig. 11)",
                       lambda ew: BasicSemantics(blocking=True),
                       _terp_insertion),
    "TT_COND": Scheme("TERP arch without window combining (+Cond)",
                      lambda ew: TerpArchEngine(ew, window_combining=False),
                      _terp_insertion),
}


@record(frozen=True)
class EvalConfig:
    """One row of :data:`SCHEMES` at given window targets; ``build``
    produces a ready Machine."""

    key: str
    ew_target_us: float = DEFAULT_EW_US
    tew_target_us: float = DEFAULT_TEW_US

    @property
    def label(self) -> str:
        return SCHEMES[self.key].label.format(ew=self.ew_target_us,
                                              tew=self.tew_target_us)

    def build(self, pmo_sizes: Dict[str, int], *, seed: int = 2022) -> Machine:
        scheme = SCHEMES[self.key]
        ew = us(self.ew_target_us)
        tew = us(self.tew_target_us)
        return Machine(
            engine=scheme.engine(ew),
            policy_factory=lambda: scheme.policy(ew, tew),
            pmo_sizes=pmo_sizes,
            randomize_on_reattach=scheme.randomize_on_reattach,
            silent_ops_are_syscalls=scheme.silent_ops_are_syscalls,
            seed=seed)


def config(key: str, *, ew_target_us: float = DEFAULT_EW_US,
           tew_target_us: float = DEFAULT_TEW_US) -> EvalConfig:
    """Build a named configuration with the given window targets."""
    if key not in SCHEMES:
        raise ConfigurationError(f"unknown configuration {key!r}")
    return EvalConfig(key, ew_target_us, tew_target_us)
