"""``python -m repro.cluster`` — run a sharded terpd cluster.

Examples::

    # 4 shards behind one router on an ephemeral port
    python -m repro.cluster --shards 4

    # durable cluster, fixed front port, state file for tooling
    python -m repro.cluster --shards 4 --port 7077 \
        --pool-dir /var/lib/terpd --state-file cluster_state.json

Existing clients connect to the front port unmodified — the router
speaks the same wire protocol as a standalone daemon.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor
from repro.service.launch import add_flags, from_args, wait_for_signal


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="terpd cluster: N sharded daemons behind a "
                    "router on one front port.  The daemon settings "
                    "reach every shard and its standby; shard i "
                    "seeds with --seed + i.")
    parser.add_argument("--shards", type=int, default=2,
                        help="worker shard processes "
                             "(default: %(default)s)")
    parser.add_argument("--routers", type=int, default=1,
                        help="router processes sharing the front port "
                             "via SO_REUSEPORT (default: %(default)s)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=7077,
                        help="front port; 0 picks an ephemeral port "
                             "(default: %(default)s)")
    parser.add_argument("--pool-dir", metavar="DIR", default=None,
                        help="durable root; each shard stores under "
                             "DIR/shardNN and warm-restarts from it")
    parser.add_argument("--profile", metavar="PREFIX", default=None,
                        help="run every process under cProfile; each "
                             "writes PREFIX.shardN / PREFIX.routerN")
    parser.add_argument("--state-file", metavar="PATH", default=None,
                        help="write a JSON description of the running "
                             "cluster (front port, shard pids/ports) "
                             "to PATH once up")
    parser.add_argument("--replicas", action="store_true",
                        help="one warm standby per shard (requires "
                             "--pool-dir): shards ship every committed "
                             "journal batch semi-synchronously, and a "
                             "dead shard is promoted from its standby "
                             "with zero acknowledged-write loss "
                             "instead of cold-restarting")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress startup/shutdown chatter")
    add_flags(parser)
    return parser


def make_config(args: argparse.Namespace) -> ClusterConfig:
    return ClusterConfig(
        shards=args.shards,
        routers=args.routers,
        host=args.host,
        port=args.port,
        pool_dir=args.pool_dir,
        service=from_args(args),
        profile=args.profile,
        quiet=args.quiet,
        replicas=args.replicas)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    supervisor = ClusterSupervisor(make_config(args))

    def ready(port: int) -> None:
        if args.state_file:
            supervisor.write_state_file(args.state_file)
        if not args.quiet:
            ports = [s["port"] for s in supervisor.state()["shards"]]
            print(f"terpd cluster serving on tcp://{args.host}:{port} "
                  f"({args.shards} shards: ports {ports})", flush=True)

    wait_for_signal(supervisor, ready=ready)
    if not args.quiet:
        print("terpd cluster stopped:", flush=True)
        print(json.dumps(
            [{"shard": c["index"], "restarts": c["restarts"]}
             for c in supervisor.state()["shards"]], indent=2),
            flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
