"""Process supervision for a terpd cluster.

:class:`ClusterSupervisor` forks ``shards`` worker processes — each a
full :class:`~repro.service.server.TerpService` with its own event
loop, sweeper, pmo_id residue class, and (when durable) its own store
subdirectory — plus one or more :class:`~repro.cluster.router.TerpRouter`
processes on the front port.  A monitor thread watches liveness and
restarts whatever dies:

* a dead **shard** restarts on the *same* learned port with the same
  store directory, so the router's arithmetic routing stays valid and
  a durable shard comes back through the warm-restart path
  (:mod:`repro.service.recovery`) with its exposure clock monotonic
  across the outage — windows that straddled the crash are charged,
  not forgiven;
* a dead **router** restarts on the front port;
* with ``replicas=True`` (durable clusters only), every shard gets a
  warm **standby** process (:class:`repro.replication.StandbyDaemon`)
  that continuously applies the shard's shipped journal batches into
  its own directory.  A dead shard is then *promoted-on-failure*: the
  supervisor sends its standby a ``promote`` frame and the standby
  comes up as the shard — on the same port, through the verbatim
  warm-restart path, with zero acknowledged-write loss (the shipper
  is semi-sync) — while a replacement standby is spawned into the old
  directory so the chain continues.  Only if promotion fails does the
  supervisor fall back to the cold same-directory restart.

Multiple routers bind the same front port with ``SO_REUSEPORT`` so the
kernel shards accepted connections across them — the cheap fast path
for connection-heavy workloads.

Everything a child needs travels through a :class:`ClusterConfig`
(picklable, so ``spawn`` works where ``fork`` is unavailable): the
topology plus one ``service`` mapping of daemon settings (rows of
:data:`repro.service.launch.SETTINGS`).  Each child runs through
``launch.serve`` / ``wait_for_signal`` and sends its bound port up a
pipe once ready — so a child known to be up can be stopped cleanly.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Tuple)

from repro.service.conn import DEFAULT_SEED, STARTUP_TIMEOUT_S
from repro.service.launch import SETTINGS, serve, wait_for_signal

#: Per-child restart budget before the supervisor gives up on it.
MAX_RESTARTS = 5
#: How often the monitor thread looks for dead children.
MONITOR_PERIOD_S = 0.15


@dataclass
class ClusterConfig:
    """Everything the supervisor and its children need to agree on."""

    shards: int = 2
    routers: int = 1
    host: str = "127.0.0.1"
    #: front (router) port; 0 picks an ephemeral one
    port: int = 0
    #: durable root: shard ``i`` stores under ``<pool_dir>/shard0i``
    pool_dir: Optional[str] = None
    #: daemon settings as ``TerpService`` keywords (``launch.SETTINGS``
    #: rows); shard ``i`` and its standby run with ``seed + i``
    service: Dict[str, Any] = field(default_factory=dict)
    #: cProfile stats prefix; each process writes its own file
    #: (``<profile>.shard0``, ``<profile>.router0``, …)
    profile: Optional[str] = None
    quiet: bool = True
    #: one warm standby per shard, promoted when the shard dies
    #: (requires ``pool_dir``: only durable state can be shipped)
    replicas: bool = False

    def shard_dir(self, index: int) -> Optional[str]:
        if self.pool_dir is None:
            return None
        return os.path.join(self.pool_dir, f"shard{index:02d}")

    def standby_dir(self, index: int) -> Optional[str]:
        if self.pool_dir is None:
            return None
        return os.path.join(self.pool_dir, f"standby{index:02d}")


def _service_kwargs(config: ClusterConfig, index: int
                    ) -> Dict[str, Any]:
    """The TerpService constructor arguments shard ``index`` runs
    with — shared verbatim with its standby, so a promoted standby is
    configured exactly like the shard it replaces."""
    return {
        **config.service,
        "host": config.host,
        "seed": config.service.get("seed", DEFAULT_SEED) + index,
        "shard_index": index,
        "shard_count": config.shards,
    }


@contextmanager
def _reporting(report, config: ClusterConfig,
               what: str) -> Iterator[Callable[[int], None]]:
    """A child's end of the startup pipe.  Yields its ``ready``
    callback: the bound port goes up, then the child's own banner.  A
    failure before that goes up instead, so the supervisor raises with
    the reason rather than waiting out the deadline."""
    def ready(port: int) -> None:
        report.send({"port": port})
        report.close()
        if not config.quiet:
            print(f"terpd {what} on port {port}", flush=True)

    try:
        yield ready
    except Exception as exc:
        with suppress(OSError, ValueError):
            report.send({"error": repr(exc)})
        raise


def _shard_main(config: ClusterConfig, index: int, port: int,
                pool_dir: Optional[str], replicate_to: Optional[str],
                report) -> None:
    """Child entry point: one terpd shard (module-level: picklable)."""
    from repro.service.server import TerpService

    with _reporting(report, config, f"shard {index} serving") as ready:
        service = TerpService(
            port=port, pool_dir=pool_dir, replicate_to=replicate_to,
            **_service_kwargs(config, index))
        asyncio.run(serve(
            service, ready=ready,
            profile=config.profile and f"{config.profile}.shard{index}"))


def _standby_main(config: ClusterConfig, index: int, port: int,
                  pool_dir: str, report) -> None:
    """Child entry point: one warm standby (module-level: picklable).

    The directory is deliberately NOT wiped here.  Stale content — a
    prior generation's mirror, or a since-destroyed PMO — is pruned by
    the shipper's reconciling bootstrap (reset frame, truncating
    headers, full snapshot) the moment a primary connects, which also
    covers reconnects of a live standby, not just process restarts.
    Deferring the cleanup to that moment matters for promotion: the
    dead shard's pool directory is recycled as the replacement
    standby's mirror, and until a promoted primary is confirmed up and
    shipping, that directory may hold the only complete durable copy
    of acknowledged writes (invariant I7).
    """
    from repro.replication.applier import StandbyDaemon

    with _reporting(report, config,
                    f"standby {index} applying") as ready:
        wait_for_signal(StandbyDaemon(
            pool_dir, host=config.host, port=port,
            service_kwargs=_service_kwargs(config, index),
            quiet=config.quiet), ready=ready)


def _router_main(config: ClusterConfig, index: int, port: int,
                 shard_addrs: List[Tuple[str, int]],
                 reuse_port: bool, report) -> None:
    """Child entry point: one router process (module-level: picklable)."""
    from repro.cluster.router import TerpRouter

    with _reporting(report, config, f"router {index} serving") as ready:
        # The budget the router reports is the one the shards enforce.
        router = TerpRouter(
            shard_addrs=shard_addrs, host=config.host, port=port,
            reuse_port=reuse_port,
            **{key: config.service[key] for key in
               ("session_ew_ns", "session_linger_ns", "seed")
               if key in config.service})
        asyncio.run(serve(
            router, ready=ready,
            profile=config.profile and f"{config.profile}.router{index}"))


class _Child:
    """One supervised process and what it takes to respawn it."""

    __slots__ = ("kind", "index", "port", "process", "restarts",
                 "given_up")

    def __init__(self, kind: str, index: int) -> None:
        self.kind = kind             # "shard" | "router"
        self.index = index
        self.port: Optional[int] = None
        self.process: Optional[multiprocessing.process.BaseProcess] = \
            None
        self.restarts = 0
        self.given_up = False


class ClusterSupervisor:
    """Fork, watch, restart: the cluster's process tree."""

    def __init__(self, config: Optional[ClusterConfig] = None,
                 **overrides: Any) -> None:
        base = config or ClusterConfig()
        # Daemon settings may be given by field name beside the
        # topology: ``ClusterSupervisor(shards=2, session_ew_ns=...)``.
        settings = {key: overrides.pop(key) for key in list(overrides)
                    if key in SETTINGS}
        overrides["service"] = {
            **overrides.get("service", base.service), **settings}
        config = dataclasses.replace(base, **overrides)
        if config.shards < 1:
            raise ValueError("need at least one shard")
        if config.routers < 1:
            raise ValueError("need at least one router")
        if config.replicas and config.pool_dir is None:
            raise ValueError("replicas need a pool_dir: only durable "
                             "state can be shipped to a standby")
        self.config = config
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:       # pragma: no cover - non-posix
            self._ctx = multiprocessing.get_context("spawn")
        self._shards = [_Child("shard", i)
                        for i in range(config.shards)]
        self._routers = [_Child("router", i)
                         for i in range(config.routers)]
        self._standbys = [_Child("standby", i)
                          for i in range(config.shards)] \
            if config.replicas else []
        #: current pool directory per shard / per standby — promotion
        #: swaps a pair, so respawns always land on live state.
        self._shard_dirs = [config.shard_dir(i)
                            for i in range(config.shards)]
        self._standby_dirs = [config.standby_dir(i)
                              for i in range(config.shards)]
        #: lifetime count of standby promotions (chaos assertions).
        self.promotions = 0
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()

    # -- introspection -----------------------------------------------------

    @property
    def front_port(self) -> int:
        port = self._routers[0].port
        assert port is not None, "cluster not started"
        return port

    #: what ``launch.wait_for_signal`` announces as ready
    bound_port = front_port

    @property
    def shard_ports(self) -> List[int]:
        return [c.port or 0 for c in self._shards]

    def shard_pid(self, index: int) -> Optional[int]:
        process = self._shards[index].process
        return process.pid if process is not None else None

    def state(self) -> Dict[str, Any]:
        return {
            "front_port": self.front_port,
            "host": self.config.host,
            "shards": [{"index": c.index, "port": c.port,
                        "pid": c.process.pid if c.process else None,
                        "restarts": c.restarts}
                       for c in self._shards],
            "routers": [{"index": c.index, "port": c.port,
                         "pid": c.process.pid if c.process else None}
                        for c in self._routers],
            "standbys": [{"index": c.index, "port": c.port,
                          "pid": c.process.pid if c.process else None,
                          "restarts": c.restarts}
                         for c in self._standbys],
            "promotions": self.promotions,
        }

    def write_state_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.state(), fh, indent=2)
            fh.write("\n")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        try:
            self._start()
        except BaseException:
            # A child that failed to come up (front port taken, pool
            # unreadable) must not strand the ones that did: no caller
            # holds a started supervisor to stop.
            self.stop()
            raise

    def _start(self) -> None:
        if self.config.pool_dir is not None:
            os.makedirs(self.config.pool_dir, exist_ok=True)
        for child in self._standbys:
            # Standbys bind first so each shard's shipper finds its
            # target on the very first dial (nothing unreplicated).
            self._spawn_standby(child, port=0)
        for child in self._shards:
            self._spawn_shard(child, port=0)
        shard_addrs = [(self.config.host, c.port or 0)
                       for c in self._shards]
        reuse = len(self._routers) > 1
        for child in self._routers:
            # Router 0 binds the configured front port; the rest join
            # it via SO_REUSEPORT for kernel-side accept sharding.
            port = self.config.port if child.index == 0 \
                else self.front_port
            self._spawn_router(child, port=port,
                               shard_addrs=shard_addrs,
                               reuse_port=reuse)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="terpd-cluster-monitor",
            daemon=True)
        self._monitor.start()

    def stop(self, timeout_s: float = 10.0) -> None:
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=timeout_s)
        deadline = time.monotonic() + timeout_s
        # Routers go first and fully: they close their upstream
        # connections on the way down, so the shards then shut down
        # with no connections left to tear mid-read.  Standbys go
        # last — a shard's shutdown drain still ships to them.
        for group in (self._routers, self._shards, self._standbys):
            for child in group:
                process = child.process
                if process is not None and process.is_alive():
                    process.terminate()
            for child in group:
                process = child.process
                if process is None:
                    continue
                process.join(timeout=max(
                    0.0, deadline - time.monotonic()))
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- chaos hooks -------------------------------------------------------

    def kill_shard(self, index: int) -> int:
        """SIGKILL one shard (no goodbye, no flush) and return its pid.

        The monitor restarts it on the same port; a durable shard then
        walks the warm-restart path and charges the outage to every
        window that was open when the power went out.  Reaped here,
        under the monitor's lock (one ``waitpid`` at a time), so
        ``wait_for_shard`` straight after never reads it as alive.
        """
        with self._lock:
            process = self._shards[index].process
            assert process is not None and process.pid is not None
            pid = process.pid
            os.kill(pid, signal.SIGKILL)
            process.join(timeout=2.0)
        return pid

    def wait_for_shard(self, index: int,
                       timeout_s: float = 15.0) -> bool:
        """Block until shard ``index`` is (back) up, or time out."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                process = self._shards[index].process
                up = process is not None and process.is_alive()
            if up and self._probe(self._shards[index]):
                return True
            time.sleep(0.02)
        return False

    def _probe(self, child: _Child) -> bool:
        import socket as socketlib
        try:
            with socketlib.create_connection(
                    (self.config.host, child.port or 0), timeout=0.5):
                return True
        except OSError:
            return False

    # -- spawning ----------------------------------------------------------

    def _spawn(self, child: _Child, target, args: tuple) -> None:
        parent_end, child_end = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=target, args=args + (child_end,),
            name=f"terpd-{child.kind}{child.index}", daemon=True)
        process.start()
        child_end.close()
        if not parent_end.poll(STARTUP_TIMEOUT_S):
            process.kill()
            raise RuntimeError(
                f"{child.kind} {child.index} never reported a port")
        reported = parent_end.recv()
        parent_end.close()
        if "error" in reported:
            process.join(timeout=2.0)
            raise RuntimeError(f"{child.kind} {child.index} failed "
                               f"to start: {reported['error']}")
        child.port = int(reported["port"])
        child.process = process

    def _spawn_shard(self, child: _Child, *, port: int) -> None:
        standby = self._standbys[child.index] \
            if self._standbys else None
        replicate_to = (f"{self.config.host}:{standby.port}"
                        if standby is not None and standby.port
                        else None)
        self._spawn(child, _shard_main,
                    (self.config, child.index, port,
                     self._shard_dirs[child.index], replicate_to))

    def _spawn_standby(self, child: _Child, *, port: int) -> None:
        self._spawn(child, _standby_main,
                    (self.config, child.index, port,
                     self._standby_dirs[child.index]))

    def _spawn_router(self, child: _Child, *, port: int,
                      shard_addrs: List[Tuple[str, int]],
                      reuse_port: bool) -> None:
        self._spawn(child, _router_main,
                    (self.config, child.index, port, shard_addrs,
                     reuse_port))

    # -- monitoring --------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(MONITOR_PERIOD_S):
            with self._lock:
                for child in self._shards:
                    self._revive(child)
                for child in self._routers:
                    self._revive(child)
                for child in self._standbys:
                    self._revive(child)

    def _revive(self, child: _Child) -> None:
        process = child.process
        if child.given_up:
            return
        if process is None:
            # Only a standby consumed by a promotion (its process
            # became the shard) legitimately has no process; respawn
            # it so the promoted shard regains a failover target.
            if child.kind != "standby":
                return
        elif process.is_alive():
            return
        else:
            process.join(timeout=0)
        if child.restarts >= MAX_RESTARTS:
            child.given_up = True
            if not self.config.quiet:
                print(f"terpd {child.kind} {child.index} died "
                      f"{child.restarts + 1} times; giving up",
                      file=sys.stderr, flush=True)
            return
        child.restarts += 1
        try:
            if child.kind == "shard":
                if self._standbys and self._promote_standby(child):
                    return
                # Same learned port, same store directory: routing
                # stays valid and recovery finds the journal.
                self._spawn_shard(child, port=child.port or 0)
            elif child.kind == "standby":
                # Same replication port: the shard's shipper dialer
                # reconnects and its reconciling bootstrap rebuilds
                # the mirror (pruning anything stale).
                self._spawn_standby(child, port=child.port or 0)
            else:
                shard_addrs = [(self.config.host, c.port or 0)
                               for c in self._shards]
                self._spawn_router(
                    child, port=child.port or 0,
                    shard_addrs=shard_addrs,
                    reuse_port=len(self._routers) > 1)
        except RuntimeError:
            # Spawn failed (port still draining?); next monitor tick
            # retries until the restart budget runs out.
            pass

    def _promote_standby(self, shard: _Child) -> bool:
        """Promote a dead shard's warm standby onto the shard's port.

        On success the standby *process* becomes the shard (the
        supervisor re-points its bookkeeping), the shard's old
        directory is recycled as the replacement standby's mirror,
        and the promoted service ships to that replacement — so the
        failover chain survives repeated deaths.  Returns False (cold
        restart fallback) if the standby is dead or unreachable.
        """
        from repro.replication.applier import promote

        index = shard.index
        standby = self._standbys[index]
        if standby.process is None or not standby.process.is_alive():
            return False
        # Replacement standby first (into the dead shard's old
        # directory), so the promote frame can point the promoted
        # service's shipper at it.  Spawning is safe *before* the
        # promotion is confirmed because a standby defers its wipe:
        # the directory — possibly the only complete durable copy of
        # acked writes, since shipping legitimately degrades — is
        # untouched until a promoted primary connects and bootstraps.
        old_shard_dir = self._shard_dirs[index]
        replacement = _Child("standby", index)
        self._standby_dirs[index], self._shard_dirs[index] = \
            old_shard_dir, self._standby_dirs[index]
        try:
            self._spawn_standby(replacement, port=0)
            replicate_to: Optional[str] = \
                f"{self.config.host}:{replacement.port}"
        except RuntimeError:
            replacement = None
            replicate_to = None
        overrides: Dict[str, Any] = {}
        if replicate_to is not None:
            overrides["replicate_to"] = replicate_to
        try:
            promote(self.config.host, standby.port or 0,
                    shard.port or 0, **overrides)
        except Exception:
            # Promotion failed; fall back to the cold restart path.
            # No promoted primary ever connected, so the dead shard's
            # directory is still intact: retire the replacement, undo
            # the swap, and let the shard cold-restart from its own
            # pool — the one copy guaranteed to hold every acked
            # write.  The old standby stays as its failover target.
            if replacement is not None and \
                    replacement.process is not None:
                if replacement.process.is_alive():
                    replacement.process.terminate()
                replacement.process.join(timeout=2.0)
            self._standby_dirs[index], self._shard_dirs[index] = \
                self._shard_dirs[index], self._standby_dirs[index]
            return False
        # The standby process now runs the shard on the shard's port.
        shard.process = standby.process
        if replacement is not None:
            self._standbys[index] = replacement
        else:
            standby.process = None    # consumed; next tick respawns
        self.promotions += 1
        if not self.config.quiet:
            print(f"terpd shard {index} promoted from standby "
                  f"(promotion #{self.promotions})", flush=True)
        return True
