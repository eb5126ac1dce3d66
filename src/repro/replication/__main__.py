"""``python -m repro.replication`` — run a warm standby.

Examples::

    # Standby applying into ./standby-pool, listening on an ephemeral
    # port (printed on startup for the primary's --replicate-to):
    python -m repro.replication --pool-dir ./standby-pool \
        --listen-port 0

    # The primary ships to it:
    python -m repro.service --port 7077 --pool-dir ./primary-pool \
        --replicate-to 127.0.0.1:<standby port>

The standby applies shipped batches until it receives a ``promote``
control frame (or SIGINT/SIGTERM), at which point it either becomes a
live terpd on the requested port — recovery running verbatim over the
mirrored pool — or shuts down.
"""

from __future__ import annotations

import sys

# The imports below must follow this block (E402 by design).
# ruff: noqa: E402
if __name__ == "__main__":
    # No OpenSSL in a serving process: see repro.service.__main__.
    sys.modules.setdefault("ssl", None)
    sys.modules.setdefault("_hashlib", None)

import argparse
import json

from repro.replication.applier import StandbyDaemon
from repro.service.launch import add_flags, from_args, wait_for_signal


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.replication",
        description="terpd warm standby: applies shipped journal "
                    "batches into its own pool directory; promotable "
                    "into a live terpd.")
    parser.add_argument("--pool-dir", metavar="DIR", required=True,
                        help="the standby's pool directory (the "
                             "primary's durable state is mirrored "
                             "here)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="replication bind address "
                             "(default: %(default)s)")
    parser.add_argument("--listen-port", type=int, default=7087,
                        help="replication port; 0 picks an ephemeral "
                             "port (default: %(default)s)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress startup/promotion chatter")
    add_flags(parser, note="promoted service: ")
    return parser


def make_standby(args: argparse.Namespace) -> StandbyDaemon:
    return StandbyDaemon(
        args.pool_dir, host=args.host, port=args.listen_port,
        service_kwargs={"host": args.host, **from_args(args)},
        quiet=args.quiet)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    standby = make_standby(args)

    def ready(port: int) -> None:
        if not args.quiet:
            print(f"standby listening on {args.host}:{port} "
                  f"(pool {args.pool_dir})", flush=True)

    # A promoted standby keeps serving until signalled; the
    # replication listener already refuses further applies.
    wait_for_signal(standby, ready=ready)
    if not args.quiet and standby.promoted:
        print("standby final applier status:", flush=True)
        print(json.dumps(standby.applier.status(), indent=2),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
