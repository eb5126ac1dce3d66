#!/usr/bin/env python3
"""A Redis-style KV service protected by TERP vs MERR.

The scenario the paper's introduction motivates: a long-running
service keeps a versioned key-value store in a 1GB PMO and processes
a stream of requests.  This example runs the same service under three
protection schemes and prints the trade-off that is the paper's whole
point — exposure (how long an attacker can reach the data) versus
overhead (how much slower the service gets):

* MERR (MM): manual attach/detach per request, all syscalls;
* TERP on MERR hardware (TM): automatic insertion, but every
  conditional call traps;
* TERP (TT): automatic insertion + circular buffer + MPK windows.
"""

from repro.eval.configs import config
from repro.eval.runner import run


def main() -> None:
    print("Redis-style KV service, 1GB PMO, 8000 transactions")
    print(f"{'scheme':28s} {'overhead':>9s} {'EW avg/max':>13s} "
          f"{'ER':>6s} {'TEW':>6s} {'TER':>6s} {'silent':>7s}")
    for key in ("MM", "TM", "TT"):
        cfg = config(key)
        result = run("whisper", "redis", cfg, ops=8_000)
        pmo = result.per_pmo[0]
        print(f"{cfg.label[:28]:28s} "
              f"{result.overhead_percent:8.2f}% "
              f"{pmo.ew_avg_us:5.1f}/{pmo.ew_max_us:5.1f}us "
              f"{pmo.er_percent:5.1f}% "
              f"{pmo.tew_avg_us:5.2f}us "
              f"{pmo.ter_percent:5.1f}% "
              f"{result.silent_percent:6.1f}%")

    print()
    tt = run("whisper", "redis", config("TT"), ops=8_000)
    cases = tt.arch_cases
    print("TERP hardware case counts (Figure 7):")
    print(f"  case 1 (first attach, syscall):   "
          f"{cases.case1_first_attach}")
    print(f"  case 2 (subsequent attach):        "
          f"{cases.case2_subsequent_attach}")
    print(f"  case 3 (silent attach, combined):  "
          f"{cases.case3_silent_attach}")
    print(f"  case 4 (partial detach):           "
          f"{cases.case4_partial_detach}")
    print(f"  case 5 (full detach, syscall):     "
          f"{cases.case5_full_detach}")
    print(f"  case 6 (delayed detach):           "
          f"{cases.case6_delayed_detach}")
    print(f"  sweeper detaches / randomizes:     "
          f"{cases.sweep_detaches} / {cases.sweep_randomizes}")
    print(f"  syscall pairs elided by combining: "
          f"{cases.elided_syscall_pairs}")


if __name__ == "__main__":
    main()
