"""Command-line entry point: ``python -m repro.eval <artifact>``.

Regenerates any of the paper's tables and figures, or ``all``::

    python -m repro.eval table3
    python -m repro.eval fig9 --txs 3000
    python -m repro.eval all --scale 0.5
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.eval.experiments import (
    fig8, fig9, fig10, fig11, semantics_space, table3, table4,
    table5, table6)

DEFAULT_TXS = 6_000
DEFAULT_ITERS = 4_000
DEFAULT_OBJECTS = 1_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("artifacts", nargs="+",
                        help="table3 table4 table5 table6 fig8 fig9 "
                             "fig10 fig11 semantics, or 'all'")
    parser.add_argument("--txs", type=int, default=DEFAULT_TXS,
                        help="WHISPER transactions per run")
    parser.add_argument("--iters", type=int, default=DEFAULT_ITERS,
                        help="SPEC iterations per run")
    parser.add_argument("--objects", type=int, default=DEFAULT_OBJECTS,
                        help="objects per dead-time profile")
    parser.add_argument("--threads", type=int, default=4,
                        help="thread count for fig11")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="global multiplier on operation counts")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for every artifact (default: each "
                             "artifact's own, as the benchmarks run it)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    txs = max(200, int(args.txs * args.scale))
    iters = max(200, int(args.iters * args.scale))
    objects = max(100, int(args.objects * args.scale))

    seed = {} if args.seed is None else {"seed": args.seed}
    runners = {
        "fig8": lambda: fig8.run(n_objects_per_profile=objects,
                                 **seed).render(),
        "table3": lambda: table3.run(n_transactions=txs, **seed).render(),
        "fig9": lambda: fig9.run(n_transactions=txs, **seed).render(),
        "table4": lambda: table4.run(n_iterations=iters, **seed).render(),
        "fig10": lambda: fig10.run(n_iterations=iters, **seed).render(),
        "fig11": lambda: fig11.run(n_iterations=max(200, iters // 2),
                                   num_threads=args.threads,
                                   **seed).render(),
        "table5": lambda: table5.run().render(),
        "table6": lambda: table6.run(n_transactions=txs // 2,
                                     n_iterations=iters // 2,
                                     **seed).render(),
        "semantics": lambda: semantics_space.render(
            semantics_space.run()),
    }

    selected = list(runners) if "all" in args.artifacts \
        else args.artifacts
    unknown = [a for a in selected if a not in runners]
    if unknown:
        print(f"unknown artifacts: {unknown}; choose from "
              f"{sorted(runners)} or 'all'", file=sys.stderr)
        return 2
    for name in selected:
        started = time.time()
        text = runners[name]()
        print("=" * 72)
        print(text)
        print(f"[{name} in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
