"""``python -m repro.service`` — run the terpd daemon.

Examples::

    # TCP on the default port
    python -m repro.service --port 7077

    # Unix socket, tight 5ms session exposure budget, 1ms sweeps
    python -m repro.service --unix /tmp/terpd.sock \
        --session-ew-ms 5 --sweep-period-ms 1

The daemon serves until SIGINT/SIGTERM, then detaches every live
session and prints a final metrics report.
"""

from __future__ import annotations

import sys

# The imports below must follow this block (E402 by design).
# ruff: noqa: E402
if __name__ == "__main__":
    # Serving needs neither TLS nor OpenSSL's digests: run as a
    # program, this process is the build without OpenSSL that both
    # asyncio and hashlib support (``ssl`` is None, ``sha1`` and
    # ``blake2b`` are the builtins, byte for byte), and libcrypto
    # (3.5 MiB resident) is never mapped.  Forked children inherit
    # it, and so does a promoted standby.  Only when run: importing
    # this module changes nothing.
    sys.modules.setdefault("ssl", None)
    sys.modules.setdefault("_hashlib", None)

import argparse
import asyncio
import json
from typing import Optional

from repro.service.launch import add_flags, from_args, serve
from repro.service.metrics import observability_dump
from repro.service.server import TerpService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="terpd: the TERP multi-tenant PMO daemon "
                    "(Table I API over length-prefixed JSON).")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=7077,
                        help="TCP port; 0 picks an ephemeral port, "
                             "-1 disables TCP (default: %(default)s)")
    parser.add_argument("--unix", metavar="PATH", default=None,
                        help="also (or instead) serve on a Unix "
                             "socket at PATH")
    parser.add_argument("--pool-dir", metavar="DIR", default=None,
                        help="durable pool directory: one CRC-guarded "
                             "file per PMO, flushed at psync through a "
                             "double-write journal, plus a session "
                             "journal enabling warm restart — start "
                             "again on the same DIR after a crash and "
                             "data, sessions, and the exposure clock "
                             "all survive")
    parser.add_argument("--replicate-to", metavar="HOST:PORT",
                        default=None,
                        help="stream every committed journal batch to "
                             "a warm standby (python -m "
                             "repro.replication) at HOST:PORT; "
                             "requires --pool-dir.  Commits wait for "
                             "the standby's ack while it is connected "
                             "(semi-sync), so an acked psync survives "
                             "primary death and promotion")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="run under cProfile and dump the stats "
                             "file to PATH on shutdown (inspect with "
                             "python -m pstats PATH)")
    parser.add_argument("--metrics-dump", metavar="PATH", default=None,
                        help="on shutdown, write the full observability "
                             "dump (metrics registry JSON, exposure "
                             "audit summary, trace stats) to PATH; "
                             "'-' writes to stdout")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress startup/shutdown chatter")
    add_flags(parser)
    return parser


def make_service(args: argparse.Namespace) -> TerpService:
    return TerpService(
        host=args.host,
        port=None if args.port < 0 else args.port,
        unix_path=args.unix,
        pool_dir=args.pool_dir,
        replicate_to=args.replicate_to,
        **from_args(args))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    service = make_service(args)

    def ready(port: Optional[int]) -> None:
        if args.quiet:
            return
        where = []
        if port is not None:
            where.append(f"tcp://{args.host}:{port}")
        if args.unix:
            where.append(f"unix://{args.unix}")
        print(f"terpd serving on {' and '.join(where)} "
              f"(session EW budget {args.session_ew_ms}ms, "
              f"sweep every {args.sweep_period_ms}ms)", flush=True)

    asyncio.run(serve(service, ready=ready, profile=args.profile))
    if args.profile and not args.quiet:
        print(f"terpd profile written to {args.profile}", flush=True)
    if args.metrics_dump:
        dump = json.dumps(observability_dump(service), indent=2,
                          default=str)
        if args.metrics_dump == "-":
            print(dump, flush=True)
        else:
            with open(args.metrics_dump, "w", encoding="utf-8") as fh:
                fh.write(dump + "\n")
    if not args.quiet:
        print("terpd final metrics:", flush=True)
        print(json.dumps(service.metrics.to_dict(), indent=2),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
