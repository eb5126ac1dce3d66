"""Figures 9, 10 and 11: execution-time overheads.

One design over two suites: each figure is a row of :data:`FIGURES` —
its suite, the configurations it plots, the thread count — and every
bar is a configuration's overhead over the unprotected baseline,
broken down into attach / detach / rand / cond / other components.

* **Figure 9** — WHISPER: MM(40us), TM(40us), and TT at 40/80/160µs
  EW targets.
* **Figure 10** — the same bars over SPEC, where PMO accesses dominate
  and MM/TM overheads blow up (the paper's 156% / >300% vs TERP's
  ~15%).
* **Figure 11** — 4-thread SPEC, all with TERP-style insertion:
  **Basic semantics** (at most one thread can hold a PMO; the others
  block — the paper's ~800% bars), **+Cond** (conditional instructions
  implementing EW-conscious semantics, no window combining) and
  **+CB** (the full TERP architecture with the circular buffer).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.record import record
from repro.eval import runner
from repro.eval.configs import config, EvalConfig
from repro.eval.tables import render_grouped_bars


@record(frozen=True)
class OverheadFigure:
    """One figure: a suite's benchmarks under a list of configurations."""

    #: ``{threads}`` is the thread count run
    title: str
    suite: str                                  # key of runner.SUITES
    #: (bar label, configuration), in the figure's order
    configs: Sequence[Tuple[str, EvalConfig]]
    num_threads: int = 1
    bar_scale: float = 1.0


#: MM and TM at the 40us target against TT at three targets.
EW_SWEEP = (
    ("MM (40us)", config("MM")),
    ("TM (40us)", config("TM")),
    ("TT (40us)", config("TT")),
    ("TT (80us)", config("TT", ew_target_us=80.0)),
    ("TT (160us)", config("TT", ew_target_us=160.0)),
)

FIGURES: Dict[str, OverheadFigure] = {
    "fig9": OverheadFigure(
        "Figure 9: WHISPER overhead vs unprotected "
        "(breakdown available per bar)", "whisper", EW_SWEEP),
    "fig10": OverheadFigure(
        "Figure 10: SPEC overhead vs unprotected "
        "(breakdown available per bar)", "spec", EW_SWEEP),
    "fig11": OverheadFigure(
        "Figure 11: {threads}-thread SPEC overheads "
        "(Basic vs +Cond vs +CB)",
        "spec", (("Basic semantics", config("TT_BASIC")),
                 ("+Cond (40us)", config("TT_COND")),
                 ("+CB (40us)", config("TT")),
                 ("+CB (80us)", config("TT", ew_target_us=80.0)),
                 ("+CB (160us)", config("TT", ew_target_us=160.0))),
        num_threads=4, bar_scale=0.2),
}


@record
class OverheadBar:
    label: str
    total_percent: float
    breakdown_percent: Dict[str, float]


@record
class OverheadResult:
    figure: OverheadFigure
    #: benchmark -> [bars in the figure's configuration order]
    bars: Dict[str, List[OverheadBar]]
    #: benchmark -> time its threads spent blocked under Basic semantics
    blocked_ns: Dict[str, int]
    num_threads: int

    def averages(self) -> List[OverheadBar]:
        labels = [b.label for b in next(iter(self.bars.values()))]
        out = []
        for i, label in enumerate(labels):
            totals = [bars[i].total_percent for bars in self.bars.values()]
            breakdowns: Dict[str, float] = {}
            for bars in self.bars.values():
                for cat, val in bars[i].breakdown_percent.items():
                    breakdowns[cat] = breakdowns.get(cat, 0.0) + val
            n = len(self.bars)
            out.append(OverheadBar(
                label, sum(totals) / n,
                {cat: val / n for cat, val in breakdowns.items()}))
        return out

    def config_total(self, label: str) -> float:
        """Average total overhead for one configuration label."""
        for bar in self.averages():
            if bar.label == label:
                return bar.total_percent
        raise KeyError(label)

    def render(self) -> str:
        series = {}
        for name, bars in list(self.bars.items()) + [
                ("avg", self.averages())]:
            series[name] = {bar.label: bar.total_percent for bar in bars}
        title = self.figure.title.format(threads=self.num_threads)
        return render_grouped_bars(series, title=title,
                                   bar_scale=self.figure.bar_scale)


def run(figure: str, *, ops: Optional[int] = None,
        names: Optional[Sequence[str]] = None,
        num_threads: Optional[int] = None,
        seed: int = 2022) -> OverheadResult:
    """Every bar of ``figure`` (a key of :data:`FIGURES`), over
    ``names`` (default: the figure's whole suite)."""
    row = FIGURES[figure]
    if num_threads is None:
        num_threads = row.num_threads
    bars: Dict[str, List[OverheadBar]] = {}
    blocked: Dict[str, int] = {}
    for name in names or runner.SUITES[row.suite].benchmarks:
        bench_bars = []
        for label, cfg in row.configs:
            result = runner.run(row.suite, name, cfg, ops=ops, seed=seed,
                                num_threads=num_threads)
            bench_bars.append(OverheadBar(
                label, result.overhead_percent,
                result.overhead_breakdown_percent()))
            if cfg.key == "TT_BASIC":
                blocked[name] = result.blocked_ns
        bars[name] = bench_bars
    return OverheadResult(row, bars, blocked, num_threads)
