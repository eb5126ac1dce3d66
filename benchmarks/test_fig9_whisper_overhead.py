"""Regenerates Figure 9: WHISPER execution-time overheads.

Paper shape: MM(40us) ~ 20% average, TM(40us) ~ 30% (50% higher than
MM), TT(40us) ~ 6% (70% reduction vs MERR); TT overhead decreases as
the EW target grows to 80/160µs.
"""

from benchmarks.conftest import run_once, WHISPER_TXS
from repro.eval.experiments import overhead


def test_fig9(benchmark):
    result = run_once(benchmark, overhead.run, "fig9", ops=WHISPER_TXS)
    print()
    print(result.render())
    mm = result.config_total("MM (40us)")
    tm = result.config_total("TM (40us)")
    tt40 = result.config_total("TT (40us)")
    tt80 = result.config_total("TT (80us)")
    tt160 = result.config_total("TT (160us)")

    # Ordering: TT < MM < TM (the paper's 6% < 20% < 30%).
    assert tt40 < mm < tm

    # TERP reduces overhead substantially vs MERR (paper: ~70%; our
    # event-cost-only MERR model under-counts MERR's indirect costs,
    # so the measured cut is ~2x — see EXPERIMENTS.md).
    assert tt40 < 0.7 * mm

    # Larger EW targets amortize better (monotone non-increasing,
    # within noise).
    assert tt160 <= tt80 + 0.5
    assert tt80 <= tt40 + 0.5

    # Absolute sanity: protected WHISPER runs stay cheap under TERP.
    assert tt40 < 12.0

    # The breakdown must attribute TM's cost to conditional calls.
    for bars in result.bars.values():
        tm_bar = next(b for b in bars if b.label == "TM (40us)")
        assert tm_bar.breakdown_percent["cond"] > \
            tm_bar.breakdown_percent["other"]
