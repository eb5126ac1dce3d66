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
import signal
import sys
import threading

from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor
from repro.pmo.store import DEFAULT_COMMIT_INTERVAL_US
from repro.service.server import (
    DEFAULT_SESSION_EW_NS, DEFAULT_SESSION_LINGER_NS,
    DEFAULT_SWEEP_PERIOD_NS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="terpd cluster: N sharded daemons behind a "
                    "router on one front port.")
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
    parser.add_argument("--session-ew-ms", type=float,
                        default=DEFAULT_SESSION_EW_NS / 1e6,
                        help="per-session exposure budget in ms "
                             "(default: %(default)s)")
    parser.add_argument("--sweep-period-ms", type=float,
                        default=DEFAULT_SWEEP_PERIOD_NS / 1e6,
                        help="sweeper period in ms "
                             "(default: %(default)s)")
    parser.add_argument("--resume-linger-ms", type=float,
                        default=DEFAULT_SESSION_LINGER_NS / 1e6,
                        help="resume-linger window in ms "
                             "(default: %(default)s)")
    parser.add_argument("--ew-target-us", type=float, default=40.0,
                        help="arch engine EW target in us "
                             "(default: %(default)s)")
    parser.add_argument("--commit-interval-us", type=int,
                        default=DEFAULT_COMMIT_INTERVAL_US,
                        help="group-commit window in us "
                             "(default: %(default)s)")
    parser.add_argument("--seed", type=int, default=2022,
                        help="base seed; shard i uses seed+i "
                             "(default: %(default)s)")
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
    parser.add_argument("--no-obs", action="store_true",
                        help="run shards with observability in no-op "
                             "mode")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress startup/shutdown chatter")
    return parser


def make_config(args: argparse.Namespace) -> ClusterConfig:
    return ClusterConfig(
        shards=args.shards,
        routers=args.routers,
        host=args.host,
        port=args.port,
        pool_dir=args.pool_dir,
        session_ew_ns=int(args.session_ew_ms * 1e6),
        sweep_period_ns=max(1, int(args.sweep_period_ms * 1e6)),
        session_linger_ns=max(0, int(args.resume_linger_ms * 1e6)),
        ew_target_us=args.ew_target_us,
        commit_interval_us=max(0, args.commit_interval_us),
        seed=args.seed,
        obs_enabled=not args.no_obs,
        profile=args.profile,
        quiet=args.quiet,
        replicas=args.replicas)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    supervisor = ClusterSupervisor(make_config(args))
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    supervisor.start()
    try:
        if args.state_file:
            supervisor.write_state_file(args.state_file)
        if not args.quiet:
            state = supervisor.state()
            print(f"terpd cluster serving on "
                  f"tcp://{args.host}:{supervisor.front_port} "
                  f"({args.shards} shards: ports "
                  f"{[s['port'] for s in state['shards']]})",
                  flush=True)
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        supervisor.stop()
        if not args.quiet:
            print("terpd cluster stopped:", flush=True)
            print(json.dumps(
                [{"shard": c["index"], "restarts": c["restarts"]}
                 for c in supervisor.state()["shards"]], indent=2),
                flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
