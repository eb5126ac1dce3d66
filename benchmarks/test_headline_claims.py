"""The paper's contribution-list claims, checked end to end.

From the introduction: "huge performance overheads reduction (6% and
15% for WHISPER and SPEC benchmarks vs. 20% and 156% with MERR)" and
"nearly 90% of system calls can be avoided"; from Section VII-B:
"TERP reduces exposure window size by 92% (14.5us to 1.2us) and
exposure rate by 86%".
"""

import pytest

from benchmarks.conftest import run_once
from repro.eval.configs import config
from repro.eval.runner import run_suite

TXS = 4_000
ITERS = 2_500


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


def test_headline_overheads_and_exposure(benchmark):
    def run():
        mm_w = run_suite("whisper", config("MM"), ops=TXS)
        tt_w = run_suite("whisper", config("TT"), ops=TXS)
        mm_s = run_suite("spec", config("MM"), ops=ITERS)
        tt_s = run_suite("spec", config("TT"), ops=ITERS)
        return mm_w, tt_w, mm_s, tt_s
    mm_w, tt_w, mm_s, tt_s = run_once(benchmark, run)

    mm_w_ovh = _mean(r.overhead_percent for r in mm_w.values())
    tt_w_ovh = _mean(r.overhead_percent for r in tt_w.values())
    mm_s_ovh = _mean(r.overhead_percent for r in mm_s.values())
    tt_s_ovh = _mean(r.overhead_percent for r in tt_s.values())
    silent_w = _mean(r.silent_percent for r in tt_w.values())
    silent_s = _mean(r.silent_percent for r in tt_s.values())
    mm_ew = _mean(r.ew_avg_us for r in mm_w.values())
    tt_tew = _mean(r.tew_avg_us for r in tt_w.values())

    print()
    print(f"  WHISPER overhead: MERR {mm_w_ovh:.1f}% -> TERP "
          f"{tt_w_ovh:.1f}%   (paper: 20% -> 6%)")
    print(f"  SPEC overhead:    MERR {mm_s_ovh:.1f}% -> TERP "
          f"{tt_s_ovh:.1f}%   (paper: 156% -> 15%)")
    print(f"  silent calls: WHISPER {silent_w:.1f}%, SPEC "
          f"{silent_s:.1f}%   (paper: ~90%)")
    print(f"  exposure: MERR EW {mm_ew:.1f}us -> TERP TEW "
          f"{tt_tew:.2f}us   (paper: 14.5 -> 1.2)")

    # WHISPER: TERP well under MERR (paper 20% -> 6%).
    assert tt_w_ovh < 0.7 * mm_w_ovh
    assert tt_w_ovh < 10.0

    # SPEC: an order of magnitude (paper 156% -> 15%).
    assert mm_s_ovh > 100.0
    assert tt_s_ovh < mm_s_ovh / 5
    assert tt_s_ovh < 25.0

    # ~90% of system calls avoided.
    assert silent_w > 80.0
    assert silent_s > 88.0

    # Exposure contracted by ~an order of magnitude.
    assert tt_tew < mm_ew / 5
