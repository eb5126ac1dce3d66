"""Table VI: gadget census and attack-scenario analysis.

Derives the armed/disarmed gadget fractions from the same simulated
runs behind Tables III and IV (a gadget is armed while the executing
thread can touch the PMO), and renders the paper's scenario grid with
those measured numbers plugged in.

Paper targets: TERP disarms ~96.6% of gadgets in WHISPER and ~89.98%
in SPEC; MERR leaves 24.5% / 27.2% of gadgets armed.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from repro.core.record import record
from repro.eval.configs import config
from repro.eval.runner import run_suite, SUITES
from repro.eval.tables import render_table
from repro.security.gadgets import (
    census_from_runs, GadgetCensus, scenario_table, ScenarioVerdict)


@record
class Table6Result:
    whisper: GadgetCensus
    spec: GadgetCensus
    scenarios: List[ScenarioVerdict]

    def render(self) -> str:
        census_rows = [
            ["WHISPER", f"{self.whisper.merr_armed_percent:.1f}",
             f"{self.whisper.terp_armed_percent:.1f}",
             f"{self.whisper.terp_disarmed_percent:.1f}",
             f"{self.whisper.improvement_factor:.1f}x"],
            ["SPEC", f"{self.spec.merr_armed_percent:.1f}",
             f"{self.spec.terp_armed_percent:.1f}",
             f"{self.spec.terp_disarmed_percent:.2f}",
             f"{self.spec.improvement_factor:.1f}x"],
        ]
        census = render_table(
            ["Suite", "MERR armed(%)", "TERP armed(%)",
             "TERP disarmed(%)", "improvement"],
            census_rows,
            title="Table VI: gadget census (armed = executable with "
                  "PMO access)")
        lines = [census, "", "Attack-scenario analysis:"]
        for s in self.scenarios:
            lines.append(f"  [{s.capability.value} | {s.relation.value}]")
            lines.append(f"    -> {s.verdict}")
            if s.quantitative:
                lines.append(f"       {s.quantitative}")
        return "\n".join(lines)


def run(*, ops: Optional[Mapping[str, int]] = None,
        seed: int = 2022) -> Table6Result:
    """``ops``: operations per run, by suite (default: each suite's)."""
    ops = ops or {}

    def census(suite: str) -> GadgetCensus:
        mm, tt = (run_suite(suite, config(key), ops=ops.get(suite),
                            seed=seed) for key in ("MM", "TT"))
        return census_from_runs(SUITES[suite].label, mm, tt)

    whisper, spec = census("whisper"), census("spec")
    return Table6Result(whisper, spec, scenario_table(whisper, spec))
