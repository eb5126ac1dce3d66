"""Gadget census and attack-scenario analysis (Table VI).

A *data-only gadget* is a program point performing an attacker-
influencable read or write (Figure 12's dereference / assignment /
addition lines).  A gadget is only useful against a PMO while the
executing thread can actually touch the PMO:

* under MERR, any gadget executing while the PMO is attached is armed
  — the armed fraction is the exposure rate (ER);
* under TERP, a gadget is armed only inside a thread exposure window
  — the armed fraction is the thread exposure rate (TER).

"Disarmed" percentages in Table VI are therefore 100 - armed.  The
census here derives them from actual simulated runs (the same runs
behind Tables III/IV), and the scenario table reproduces the paper's
three-case analysis of gadget/window relationships.
"""

from __future__ import annotations

import enum
from typing import Dict, List

from repro.core.record import record
from repro.sim.stats import RunResult


@record(frozen=True)
class GadgetCensus:
    """Fraction of gadgets armed/disarmed under each scheme."""

    suite: str
    merr_armed_percent: float     # = ER under MERR
    terp_armed_percent: float     # = TER under TERP

    @property
    def merr_disarmed_percent(self) -> float:
        return 100.0 - self.merr_armed_percent

    @property
    def terp_disarmed_percent(self) -> float:
        return 100.0 - self.terp_armed_percent

    @property
    def improvement_factor(self) -> float:
        """How many times fewer gadgets stay armed under TERP."""
        if self.terp_armed_percent == 0:
            return float("inf")
        return self.merr_armed_percent / self.terp_armed_percent


def census_from_runs(suite: str, merr_results: Dict[str, RunResult],
                     terp_results: Dict[str, RunResult]) -> GadgetCensus:
    """Derive the census from per-benchmark MERR and TERP runs.

    Gadgets are uniformly distributed over execution time, so the
    armed fraction equals the time-fraction a random gadget execution
    finds the PMO accessible to its thread.
    """
    merr_armed = _mean([r.er_percent for r in merr_results.values()])
    terp_armed = _mean([r.ter_percent for r in terp_results.values()])
    return GadgetCensus(suite=suite,
                        merr_armed_percent=merr_armed,
                        terp_armed_percent=terp_armed)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class GadgetRelation(enum.Enum):
    """Table VI columns: gadget position vs attach-detach pairs."""

    NO_OVERLAP = "no overlap"
    WITHIN_PAIR = "gadgets within an attach-detach pair"
    CONTAINS_PAIR = "gadgets include an attach-detach pair"


class AttackCapability(enum.Enum):
    """Table VI rows."""

    SINGLE_READ_WRITE = "one arbitrary read or write"
    GADGET_LOOP = "an infinite loop with several arbitrary reads/writes"


@record(frozen=True)
class ScenarioVerdict:
    relation: GadgetRelation
    capability: AttackCapability
    verdict: str
    quantitative: str = ""


def scenario_table(census_whisper: GadgetCensus,
                   census_spec: GadgetCensus,
                   *, probe_success_percent: float = 0.01
                   ) -> List[ScenarioVerdict]:
    """The paper's Table VI, with the measured census plugged in."""
    return [
        ScenarioVerdict(
            GadgetRelation.NO_OVERLAP, AttackCapability.SINGLE_READ_WRITE,
            "prevented by the permission",
        ),
        ScenarioVerdict(
            GadgetRelation.WITHIN_PAIR, AttackCapability.SINGLE_READ_WRITE,
            "hindered by EW and address randomization",
        ),
        ScenarioVerdict(
            GadgetRelation.CONTAINS_PAIR,
            AttackCapability.SINGLE_READ_WRITE,
            "hindered by EW and address randomization",
        ),
        ScenarioVerdict(
            GadgetRelation.NO_OVERLAP, AttackCapability.GADGET_LOOP,
            "gadgets disarmed outside thread windows",
            quantitative=(
                f"prevent {census_whisper.terp_disarmed_percent:.1f}% "
                f"gadgets in WHISPER; "
                f"{census_spec.terp_disarmed_percent:.2f}% in SPEC"),
        ),
        ScenarioVerdict(
            GadgetRelation.WITHIN_PAIR, AttackCapability.GADGET_LOOP,
            "interactive attacks impossible (network latency >> EW); "
            "non-interactive attacks need complicated mechanisms",
            quantitative=(f"state-of-art probing: "
                          f"{probe_success_percent}% chance per EW"),
        ),
        ScenarioVerdict(
            GadgetRelation.CONTAINS_PAIR, AttackCapability.GADGET_LOOP,
            "accumulated probability, but each session limited to EW",
        ),
    ]
