"""Table V: quantitative attack success probability, MERR vs TERP.

Analytic (as in the paper) plus a Monte-Carlo cross-check.  The
headline: TERP's per-window success probability is ~30x smaller than
MERR's, because the malicious thread holds PMO permission only a
small fraction (TER/ER) of each exposure window.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.record import record
from repro.eval.tables import render_table
from repro.security.probability import (
    merr_success_percent, placement_entropy_bits, reduction_factor,
    simulate_probing, terp_success_percent)
from repro.security.threat_model import AttackClass, DEFAULT_THREAT_MODEL


@record
class Table5Result:
    entropy_bits: int
    merr_1us: float
    merr_01us: float
    terp_1us: Optional[float]
    terp_01us: Optional[float]
    monte_carlo_merr_1us: float
    access_fraction: float

    @property
    def reduction(self) -> float:
        return reduction_factor(1.0,
                                access_fraction=self.access_fraction)

    def render(self) -> str:
        rows = []
        # One row per in-scope attack class (Section III-B), in the
        # order the threat model declares them.
        for attack in (a for a in AttackClass
                       if a in DEFAULT_THREAT_MODEL.in_scope):
            rows.append([
                attack.value.title(),
                "0.015/x", f"{self.merr_1us:.4f}", f"{self.merr_01us:.3f}",
                "0.0005/x", f"{self.terp_1us:.5f}",
                f"{self.terp_01us:.4f}" if self.terp_01us is not None
                else "n/a (probe > TEW)",
            ])
        table = render_table(
            ["Attack", "MERR x us", "MERR 1us", "MERR 0.1us",
             "TERP x us", "TERP 1us", "TERP 0.1us"],
            rows,
            title="Table V: success probability (%) per exposure "
                  "window, 1GB PMO")
        return (table +
                f"\nplacement entropy: {self.entropy_bits} bits"
                f"\nTERP/MERR reduction: {self.reduction:.0f}x "
                f"(paper: ~30x)"
                f"\nMonte-Carlo MERR @1us: "
                f"{self.monte_carlo_merr_1us:.4f}% "
                f"(analytic {self.merr_1us:.4f}%)")


def run(*, ew_us: float = 40.0, tew_us: float = 2.0,
        whisper_ter_over_er: float = 1.0 / 30.0) -> Table5Result:
    entropy = placement_entropy_bits()
    return Table5Result(
        entropy_bits=entropy,
        merr_1us=merr_success_percent(1.0, ew_us=ew_us,
                                      entropy_bits=entropy),
        merr_01us=merr_success_percent(0.1, ew_us=ew_us,
                                       entropy_bits=entropy),
        terp_1us=terp_success_percent(
            1.0, ew_us=ew_us, tew_us=tew_us,
            access_fraction=whisper_ter_over_er, entropy_bits=entropy),
        terp_01us=terp_success_percent(
            0.1, ew_us=ew_us, tew_us=tew_us,
            access_fraction=whisper_ter_over_er, entropy_bits=entropy),
        monte_carlo_merr_1us=simulate_probing(
            1.0, window_us=ew_us, entropy_bits=entropy),
        access_fraction=whisper_ter_over_er,
    )
