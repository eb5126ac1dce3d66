"""Command-line entry point: ``python -m repro.eval <artifact>``.

Regenerates any of the paper's tables and figures, or ``all``::

    python -m repro.eval table3
    python -m repro.eval fig9 --txs 3000
    python -m repro.eval all --scale 0.5

Every artifact is a row of :data:`ARTIFACTS`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from repro.eval.experiments import (
    exposure, fig8, overhead, semantics_space, table5, table6)

DEFAULT_TXS = 6_000
DEFAULT_ITERS = 4_000
DEFAULT_OBJECTS = 1_000

#: artifact -> (scaled counts, seed keywords) -> its rendered text, in
#: ``all``'s order.  The counts are ``txs`` (WHISPER transactions),
#: ``iters`` (SPEC iterations), ``objects`` (per dead-time profile) and
#: ``threads``; without ``--seed`` each artifact runs on its own
#: default seed, as the benchmarks run it.
ARTIFACTS: Dict[str, Callable[[argparse.Namespace, dict], str]] = {
    "fig8": lambda n, seed: fig8.run(
        n_objects_per_profile=n.objects, **seed).render(),
    "table3": lambda n, seed: exposure.render_table3(
        exposure.run("whisper", ops=n.txs, **seed)),
    "fig9": lambda n, seed: overhead.run(
        "fig9", ops=n.txs, **seed).render(),
    "table4": lambda n, seed: exposure.render_table4(
        exposure.run("spec", ops=n.iters, **seed)),
    "fig10": lambda n, seed: overhead.run(
        "fig10", ops=n.iters, **seed).render(),
    "fig11": lambda n, seed: overhead.run(
        "fig11", ops=max(200, n.iters // 2), num_threads=n.threads,
        **seed).render(),
    "table5": lambda n, seed: table5.run().render(),
    "table6": lambda n, seed: table6.run(
        ops={"whisper": n.txs // 2, "spec": n.iters // 2},
        **seed).render(),
    "semantics": lambda n, seed: semantics_space.render(
        semantics_space.run()),
}


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("artifacts", nargs="+",
                        help=" ".join(ARTIFACTS) + ", or 'all'")
    parser.add_argument("--txs", type=int, default=DEFAULT_TXS,
                        help="WHISPER transactions per run")
    parser.add_argument("--iters", type=int, default=DEFAULT_ITERS,
                        help="SPEC iterations per run")
    parser.add_argument("--objects", type=int, default=DEFAULT_OBJECTS,
                        help="objects per dead-time profile")
    parser.add_argument("--threads", type=_thread_count, default=4,
                        help="thread count for fig11")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="global multiplier on operation counts")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for every artifact (default: each "
                             "artifact's own, as the benchmarks run it)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    counts = argparse.Namespace(
        txs=max(200, int(args.txs * args.scale)),
        iters=max(200, int(args.iters * args.scale)),
        objects=max(100, int(args.objects * args.scale)),
        threads=args.threads)
    seed = {} if args.seed is None else {"seed": args.seed}

    selected = list(ARTIFACTS) if "all" in args.artifacts \
        else args.artifacts
    unknown = [a for a in selected if a not in ARTIFACTS]
    if unknown:
        print(f"unknown artifacts: {unknown}; choose from "
              f"{sorted(ARTIFACTS)} or 'all'", file=sys.stderr)
        return 2
    for name in selected:
        started = time.time()
        text = ARTIFACTS[name](counts, seed)
        print("=" * 72)
        print(text)
        print(f"[{name} in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
