"""Regenerates Table VI: gadget census and scenario analysis.

Paper values: TERP disarms ~96.6% of gadgets in WHISPER and ~89.98%
in SPEC; MERR keeps 24.5% (WHISPER) and 27.2% (SPEC) of gadgets
armed.  A ~20x attack-surface reduction vs MERR is the paper's
abstract-level claim.
"""

from benchmarks.conftest import run_once
from repro.eval.experiments import table6

TXS = 3_000
ITERS = 2_000


def test_table6(benchmark):
    result = run_once(benchmark, table6.run,
                      ops={"whisper": TXS, "spec": ITERS})
    print()
    print(result.render())

    # TERP disarms the overwhelming majority of gadgets.
    assert result.whisper.terp_disarmed_percent > 90.0
    assert result.spec.terp_disarmed_percent > 80.0

    # MERR leaves far more gadgets armed than TERP.
    assert result.whisper.merr_armed_percent > \
        2 * result.whisper.terp_armed_percent
    assert result.spec.merr_armed_percent > \
        result.spec.terp_armed_percent

    # Attack-surface improvement factor is large (paper: ~20x at the
    # abstract level; 24.5/3.4 ~ 7x for WHISPER alone).
    assert result.whisper.improvement_factor > 3.0

    # The scenario grid is complete.
    assert len(result.scenarios) == 6
