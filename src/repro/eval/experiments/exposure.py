"""Tables III and IV: exposure under MERR and TERP at a 40µs EW target.

For each benchmark of a suite, runs MM and TT and reports MERR's
avg/max EW and ER against TERP's Silent%, EW, ER, TEW and TER —
averaged over the benchmark's PMOs, which for WHISPER's single PMO is
that PMO's.  Table III is the WHISPER run, Table IV the SPEC one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.record import fields, record
from repro.eval import runner
from repro.eval.configs import config
from repro.eval.tables import render_table


@record
class ExposureRow:
    name: str
    n_pmos: float
    mm_ew_avg_us: float
    mm_ew_max_us: float
    mm_er_percent: float
    tt_silent_percent: float
    tt_ew_avg_us: float
    tt_ew_max_us: float
    tt_er_percent: float
    tt_tew_us: float
    tt_ter_percent: float


@record
class ExposureResult:
    rows: List[ExposureRow]

    def averages(self) -> ExposureRow:
        n = len(self.rows)
        columns = [[getattr(r, f.name) for r in self.rows]
                   for f in fields(ExposureRow)[1:]]
        n_pmos, *rest = (sum(column) / n for column in columns)
        return ExposureRow("Avg.", round(n_pmos, 1), *rest)


def run(suite: str, *, ops: Optional[int] = None,
        names: Optional[Sequence[str]] = None,
        seed: int = 2022) -> ExposureResult:
    """One row per benchmark of ``suite`` (default: all of them)."""
    mm_cfg = config("MM")
    tt_cfg = config("TT")
    benchmarks = runner.SUITES[suite].benchmarks
    rows = []
    for name in names or benchmarks:
        mm = runner.run(suite, name, mm_cfg, ops=ops, seed=seed)
        tt = runner.run(suite, name, tt_cfg, ops=ops, seed=seed)
        rows.append(ExposureRow(
            name, benchmarks[name].n_pmos,
            mm.ew_avg_us, mm.ew_max_us, mm.er_percent,
            tt.silent_percent, tt.ew_avg_us, tt.ew_max_us,
            tt.er_percent, tt.tew_avg_us, tt.ter_percent))
    return ExposureResult(rows)


def _cells(r: ExposureRow, tew_format: str) -> list:
    return [f"{r.mm_ew_avg_us:.1f}/{r.mm_ew_max_us:.1f}",
            f"{r.mm_er_percent:.1f}",
            f"{r.tt_silent_percent:.1f}",
            f"{r.tt_ew_avg_us:.1f}/{r.tt_ew_max_us:.1f}",
            f"{r.tt_er_percent:.1f}",
            format(r.tt_tew_us, tew_format),
            f"{r.tt_ter_percent:.1f}"]


def render_table3(result: ExposureResult) -> str:
    return render_table(
        ["Prog.", "MM EW avg/max (us)", "MM ER(%)", "TT Silent(%)",
         "TT EW avg/max (us)", "TT ER(%)", "TT TEW(us)", "TT TER(%)"],
        [[r.name] + _cells(r, ".1f")
         for r in result.rows + [result.averages()]],
        title="Table III: WHISPER results, target EW = 40us")


def render_table4(result: ExposureResult) -> str:
    return render_table(
        ["Prog.", "#PMOs", "MM EW avg/max", "MM ER(%)", "TT Silent(%)",
         "TT EW avg/max", "TT ER(%)", "TT TEW(us)", "TT TER(%)"],
        [[r.name, r.n_pmos] + _cells(r, ".2f")
         for r in result.rows + [result.averages()]],
        title="Table IV: SPEC results, 40us EW (avg over all PMOs)")
