"""Real terpd processes for terpbench: spawn, find, sample, stop.

Every server is a subprocess of the unmodified program (``python -m
repro.service`` / ``repro.cluster`` / ``repro.replication``) in its own
session, so one ``killpg`` reaps a whole cluster.  Output goes to a log
file inside the run's temp dir; the serving port is read from the
startup line (``--port 0``), never guessed.  CPU and memory are read
from ``/proc/<pid>`` and wire traffic from ``/proc/net/dev`` — the
program is measured from outside.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

from repro.replication.wire import recv_msg, send_msg

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
STARTUP_TIMEOUT_S = 30.0

#: Flags every daemon gets.  The 2 s session budget keeps ordinary
#: tenants clear of the sweeper on every backend (a durable cycle is
#: ~10 ms); only ``sweep_hold``'s holder asks for a tight one in hello.
DAEMON_FLAGS = ["--session-ew-ms", "2000", "--sweep-period-ms", "5"]

_SERVICE_RE = re.compile(r"terpd serving on tcp://[^:]+:(\d+)")
_CLUSTER_RE = re.compile(r"terpd cluster serving on tcp://[^:]+:(\d+)")
_STANDBY_RE = re.compile(r"standby listening on [^:]+:(\d+)")

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def pin_to_one_cpu() -> None:
    """Pin the calling thread — and so every thread and server process
    it starts from here on, which inherit its mask — to the last CPU it
    may use (interrupts favour the first).  A closed loop with two
    clients keeps about one thread runnable at a time, so one CPU
    serves it as fast as two — and a run then depends neither on where
    the scheduler happened to place three busy threads nor on cross-CPU
    wake-ups, which in a VM are slow and erratic (unpinned, identical
    ``mem_cycle`` runs differed by 36 %)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Proc:
    """One server subprocess, logging to ``<tmp>/<name>.log``."""

    def __init__(self, name: str, module: str, args: List[str],
                 tmp: Path) -> None:
        self.name = name
        self.log = tmp / f"{name}.log"
        env = {**os.environ, "PYTHONUNBUFFERED": "1",
               "PYTHONPATH": str(SRC_DIR)}
        with open(self.log, "ab") as fh:
            self.popen = subprocess.Popen(
                [sys.executable, "-m", module, *args], stdout=fh,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=env, start_new_session=True)

    @property
    def pid(self) -> int:
        return self.popen.pid

    def expect(self, pattern: "re.Pattern[str]") -> int:
        """Wait for a startup line; returns its first group as int."""
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            match = pattern.search(self.log.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            if self.popen.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            f"{self.name} did not start (rc={self.popen.poll()}): "
            f"{self.log.read_text(errors='replace')[-400:]}")

    def _signal_group(self, sig: int) -> None:
        try:
            os.killpg(self.popen.pid, sig)
        except ProcessLookupError:
            pass

    def sigkill(self) -> None:
        self._signal_group(signal.SIGKILL)
        self.popen.wait(timeout=10.0)

    def stop(self) -> None:
        """SIGTERM the group, wait, then SIGKILL whatever is left."""
        if self.popen.poll() is None:
            self._signal_group(signal.SIGTERM)
            try:
                self.popen.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass
        self.sigkill()


class Topology:
    """The servers behind one workload.

    ``kind`` is ``memory`` (one daemon), ``file`` (one daemon on a
    pool dir), ``replicated`` (standby + shipping primary) or
    ``cluster`` (2 shards behind 1 router).  ``port`` is where tenants
    connect.
    """

    def __init__(self, kind: str, tmp: Path) -> None:
        self.kind = kind
        self.tmp = tmp
        self.procs: List[Proc] = []
        self.port = 0
        self._repl_port = 0
        self._cluster_pids: List[int] = []

    def start(self) -> "Topology":
        try:
            if self.kind == "cluster":
                self._start_cluster()
            else:
                self._start_daemon()
        except BaseException:
            self.stop()
            raise
        return self

    def _daemon_args(self, port: int) -> List[str]:
        args = ["--port", str(port), *DAEMON_FLAGS]
        if self.kind != "memory":
            args += ["--pool-dir", str(self.tmp / "pool")]
        if self.kind == "replicated":
            args += ["--replicate-to", f"127.0.0.1:{self._repl_port}"]
        return args

    def _start_daemon(self) -> None:
        if self.kind == "replicated":
            standby = Proc("standby", "repro.replication", [
                "--pool-dir", str(self.tmp / "standby-pool"),
                "--listen-port", "0", *DAEMON_FLAGS], self.tmp)
            self.procs.append(standby)
            self._repl_port = standby.expect(_STANDBY_RE)
        daemon = Proc("terpd", "repro.service", self._daemon_args(0),
                      self.tmp)
        self.procs.append(daemon)
        self.port = daemon.expect(_SERVICE_RE)

    def _start_cluster(self) -> None:
        state = self.tmp / "cluster_state.json"
        cluster = Proc("cluster", "repro.cluster", [
            "--shards", "2", "--routers", "1", "--port", "0",
            "--state-file", str(state), *DAEMON_FLAGS], self.tmp)
        self.procs.append(cluster)
        self.port = cluster.expect(_CLUSTER_RE)
        doc = json.loads(state.read_text())
        self._cluster_pids = [c["pid"] for group in ("shards", "routers")
                              for c in doc[group]]

    def server_pids(self) -> List[int]:
        """Every live server-side pid: daemon, standby, supervisor,
        shards, router."""
        return [p.pid for p in self.procs if p.popen.poll() is None] \
            + self._cluster_pids

    # -- crash legs (correctness checks only) ------------------------------

    def kill_primary(self) -> None:
        """SIGKILL the serving daemon (no drain, no goodbye)."""
        self.procs.pop().sigkill()

    def restart_primary(self) -> None:
        """Same command line, same pool dir, same port: warm restart."""
        daemon = Proc("terpd-restarted", "repro.service",
                      self._daemon_args(self.port), self.tmp)
        self.procs.append(daemon)
        daemon.expect(_SERVICE_RE)

    def promote_standby(self) -> None:
        """The supervisor's promote frame; the standby takes over the
        dead primary's port."""
        with socket.create_connection(("127.0.0.1", self._repl_port),
                                      timeout=10.0) as sock:
            sock.settimeout(STARTUP_TIMEOUT_S)
            send_msg(sock, {"t": "promote", "port": self.port,
                            "service": {}})
            got = recv_msg(sock)
        if got is None or got[0].get("t") != "promoted":
            raise RuntimeError(f"standby did not promote: {got}")

    def stop(self) -> None:
        # Front to back: a primary's shutdown drain still ships to its
        # standby, so the standby (started first) goes last.
        while self.procs:
            self.procs.pop().stop()
        self._cluster_pids = []


def cpu_seconds(pids: List[int]) -> float:
    """Σ (utime + stime) of ``pids``, from ``/proc/<pid>/stat``."""
    ticks = 0
    for pid in pids:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised comm (which may hold spaces).
        fields = stat.rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLK_TCK


def rss_high_water_mib(pids: List[int]) -> float:
    """Σ ``VmHWM`` of ``pids`` in MiB, from ``/proc/<pid>/status``."""
    kib = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match:
            kib += int(match.group(1))
    return kib / 1024.0


def loopback_counters() -> Tuple[int, int]:
    """``(bytes, packets)`` the loopback interface has carried, from
    ``/proc/net/dev``: everything the tenants, the router, the shards
    and the replication link say to each other, headers and ACKs
    included.  Nothing else in the sandbox talks over loopback."""
    for line in Path("/proc/net/dev").read_text().splitlines():
        name, _, rest = line.partition(":")
        if name.strip() == "lo":
            fields = rest.split()
            return int(fields[0]), int(fields[1])
    raise RuntimeError("no loopback interface in /proc/net/dev")


def self_cpu_seconds() -> float:
    """The bench process's own CPU (all threads): the client side."""
    times = os.times()
    return times.user + times.system
