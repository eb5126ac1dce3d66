"""Regenerates Table IV: SPEC multi-PMO single-thread results.

Paper averages: 3.6 PMOs; MM EW 4.4/25.4µs, ER 27.2%; TT Silent
96.8%, EW 39.7/40.0µs, ER 38.1%, TEW 1.02µs, TER 10.0%.  Structure:
the higher the PMO count the lower the exposure rate (657.xz, 6 PMOs,
lowest ER), because programs use different PMOs in different stages.
"""

from benchmarks.conftest import run_once, SPEC_ITERS
from repro.eval.experiments import exposure


def test_table4(benchmark):
    result = run_once(benchmark, exposure.run, "spec", ops=SPEC_ITERS)
    print()
    print(exposure.render_table4(result))
    avg = result.averages()
    by_name = {r.name: r for r in result.rows}

    # The paper's PMO counts.
    assert {r.name: r.n_pmos for r in result.rows} == {
        "mcf": 4, "lbm": 2, "imagick": 3, "nab": 3, "xz": 6}

    # TERP windows pinned at the target; MERR's tiny and unstable.
    assert 34.0 <= avg.tt_ew_avg_us <= 41.0
    assert avg.mm_ew_avg_us < 15.0

    # Very high silent rate on SPEC (paper: 96.8%).
    assert avg.tt_silent_percent > 88.0

    # TEW near 1us, TER well under ER (paper: 1.02us, 10.0% vs 38.1%).
    assert avg.tt_tew_us <= 2.5
    assert avg.tt_ter_percent < avg.tt_er_percent

    # Higher PMO count -> lower exposure rate: xz (6 PMOs) must have
    # the lowest TT ER; lbm (2 PMOs, both hot) the highest.
    ers = {name: row.tt_er_percent for name, row in by_name.items()}
    assert min(ers, key=ers.get) == "xz"
    assert max(ers, key=ers.get) == "lbm"
