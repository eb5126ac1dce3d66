"""The shapes terpd is stood up in for a harness, declared once.

A harness that kills daemons needs the same five verbs whatever it is
killing, so every topology here offers exactly them:

``start()``          bring everything up; returns the port clients use
``kill(victim)``     SIGKILL one named process — no goodbye, no flush
``recover(victim)``  bring it back *on the same port*; returns the port
``audits()``         each serving daemon's audit state, read over the
                     wire: ``{scope: {"events", "open_windows",
                     "summary", "recovery"}}``
``stop()``           tear everything down, pool directories included

=========== ================================ ========= ================
key         what runs                        victims   comes back by
=========== ================================ ========= ================
``thread``  a daemon on a ``ServiceThread``  daemon    a second service
            (the only shape a ``FaultPlan``            on the same pool
            can be wired through)
``process`` ``python -m repro.service``      daemon    the same command
                                                       line again
``cluster`` an N-shard ``ClusterSupervisor`` shardN    the supervisor's
                                                       monitor
``pair``    primary + standby processes      primary   ``promote`` to
                                                       the standby
=========== ================================ ========= ================

Every topology takes the daemon settings as one dict of
``TerpService`` keywords and hands it to what it starts: as keywords
in-process, as ``ClusterConfig.service``, or as flags
(``launch.to_flags``).  Child processes go through one :class:`Proc`,
which owns the startup banner patterns and enforces the startup
deadline, and which stops a child's whole process group.  Nothing
here is imported by a serving process.  (``benchmarks/terpbench``
keeps its own spawner until a ``[benchmark]`` PR can point it here.)
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor
from repro.faults.plan import FaultPlan
from repro.replication.applier import promote
from repro.service.client import SyncTerpClient
from repro.service.launch import STARTUP_TIMEOUT_S, to_flags
from repro.service.server import ServiceThread, TerpService

__all__ = ["BANNERS", "Proc", "TOPOLOGIES", "fetch_audit",
           "ThreadDaemon", "ProcDaemon", "Cluster", "ReplicatedPair"]

HOST = "127.0.0.1"
#: What each ``python -m`` entry point prints once it serves; group 1
#: is the port.
BANNERS = {
    "repro.service": re.compile(r"terpd serving on tcp://[^:]+:(\d+)"),
    "repro.cluster":
        re.compile(r"terpd cluster serving on tcp://[^:]+:(\d+)"),
    "repro.replication":
        re.compile(r"standby listening on [^:]+:(\d+)"),
}
#: Children import the ``repro`` this process imported.
_SRC_DIR = str(Path(__file__).resolve().parents[1])


class Proc:
    """One ``python -m <module>`` child in a session of its own: spawn
    it, wait for its startup banner under an enforced deadline, SIGKILL
    it, stop it.  Both signals go to the child's whole process group,
    so a supervisor's forked children get the group's SIGTERM and then
    the supervisor's own, as from a terminal's Ctrl-C.

    A reader thread owns the child's stdout from the first byte (and
    keeps the last 50 lines), so waiting for the banner is waiting on
    an event with a timeout — a child that wedges before printing
    anything costs the deadline, not the CI job's.  stderr joins
    stdout unless the caller asks to keep it apart.
    """

    def __init__(self, module: str, args: Sequence[str] = (), *,
                 stderr: int = subprocess.STDOUT) -> None:
        self.module = module
        path = os.pathsep.join(
            p for p in (_SRC_DIR, os.environ.get("PYTHONPATH")) if p)
        self.popen = subprocess.Popen(
            [sys.executable, "-m", module, *args],
            stdout=subprocess.PIPE, stderr=stderr,
            stdin=subprocess.DEVNULL, text=True, start_new_session=True,
            env={**os.environ, "PYTHONUNBUFFERED": "1",
                 "PYTHONPATH": path})
        self.pid = self.popen.pid
        self.lines: Deque[str] = deque(maxlen=50)
        self.port: Optional[int] = None
        #: set at the banner, or at EOF without one
        self._settled = threading.Event()
        self._reader = threading.Thread(
            target=self._read, name=f"proc-{module}", daemon=True)
        self._reader.start()

    def _read(self) -> None:
        banner = BANNERS[self.module]
        assert self.popen.stdout is not None
        for line in self.popen.stdout:
            self.lines.append(line.rstrip())
            match = None if self.port is not None \
                else banner.search(line)
            if match:
                self.port = int(match.group(1))
                self._settled.set()
        self._settled.set()

    def ready(self, timeout_s: float = STARTUP_TIMEOUT_S) -> int:
        """The port on the startup banner.  Raises — with the child's
        return code and last output, and the child stopped — if it
        exits, or ``timeout_s`` passes, before the banner."""
        at_eof = self._settled.wait(timeout_s)
        if self.port is None:
            # EOF without a banner: the child is on its way out, so
            # its own return code is worth the wait.
            rc = self._wait(5.0) if at_eof else None
            self.stop()
            raise RuntimeError(
                f"{self.module} "
                f"{'exited' if at_eof else 'printed no banner'} "
                f"during startup (rc={rc}, deadline {timeout_s}s): "
                f"{' | '.join(self.lines) or 'no output'}")
        return self.port

    def _wait(self, timeout_s: float) -> Optional[int]:
        try:
            return self.popen.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            return None

    def _signal_group(self, sig: int) -> None:
        try:
            os.killpg(self.pid, sig)
        except ProcessLookupError:      # the whole group is gone
            pass

    def sigkill(self) -> None:
        """``kill -9`` of the group, reaped."""
        self._signal_group(signal.SIGKILL)
        self.stop()

    def stop(self) -> int:
        """SIGTERM the group (SIGKILL if that is ignored), reap, and
        release the stdout pipe; returns the exit code.  Idempotent."""
        if self.popen.poll() is None:
            self._signal_group(signal.SIGTERM)
        if self._wait(10.0) is None:
            self._signal_group(signal.SIGKILL)
            self.popen.wait(timeout=10.0)
        self._reader.join(timeout=5.0)
        assert self.popen.stdout is not None
        self.popen.stdout.close()
        return self.popen.returncode


def fetch_audit(port: int) -> Dict[str, Any]:
    """One daemon's audit state, over the wire: its event ring, the
    windows open right now, the exact cumulative summary, and — after a
    warm restart or a promotion — the recovery report."""
    with SyncTerpClient(host=HOST, port=port) as direct:
        trace = direct.call("trace", limit=65536)
        metrics = direct.call("metrics")
    return {"events": trace["audit"],
            "open_windows": trace["open_windows"],
            "summary": metrics["audit"],
            "recovery": metrics.get("recovery") or {}}


class _Topology:
    """What the four shapes share: the settings, the port clients use,
    and a scratch root for pool directories that lives from ``start``
    to ``stop``."""

    #: the processes ``kill`` / ``recover`` know by name
    victims: Sequence[str] = ()

    def __init__(self, settings: Dict[str, Any], *,
                 durable: bool) -> None:
        self.settings, self.durable = settings, durable
        self.root: Optional[str] = None
        self.port = 0

    def start(self) -> int:
        if self.durable:
            self.root = tempfile.mkdtemp(prefix="terp-topology-")
        self.port = self._serve()
        return self.port

    def _check(self, victim: str) -> str:
        if victim not in self.victims:
            raise ValueError(f"{type(self).__name__} can kill "
                             f"{list(self.victims)}, not {victim!r}")
        return victim

    def audits(self) -> Dict[str, Dict[str, Any]]:
        # One serving daemon, scoped under the name it is killed by.
        return {self.victims[0]: fetch_audit(self.port)}

    def stop(self) -> None:
        self._halt()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)


class ThreadDaemon(_Topology):
    """One daemon on a :class:`ServiceThread`.  In-process, so a
    :class:`FaultPlan` reaches every layer and ``kill`` is
    :meth:`ServiceThread.kill`; the recovered daemon runs fault-free.
    ``service`` is the serving :class:`TerpService` itself."""

    victims = ("daemon",)
    service: Optional[TerpService] = None

    def __init__(self, settings: Dict[str, Any], *, durable: bool,
                 faults: Optional[FaultPlan] = None) -> None:
        super().__init__(settings, durable=durable)
        self.faults = faults
        self._thread: Optional[ServiceThread] = None

    def _serve(self) -> int:
        self._thread = ServiceThread(TerpService(
            host=HOST, port=self.port, pool_dir=self.root,
            faults=self.faults, **self.settings))
        self.service = self._thread.start()
        return self.service.bound_port or 0

    def kill(self, victim: str) -> None:
        self._check(victim)
        assert self._thread is not None
        self._thread.kill()

    def recover(self, victim: str) -> int:
        self._check(victim)
        self.faults = None
        return self._serve()

    def _halt(self) -> None:
        if self._thread is not None:
            self._thread.stop()


class ProcDaemon(_Topology):
    """One ``python -m repro.service``; ``kill`` is a real ``kill -9``
    and ``recover`` the same command line on the learned port."""

    victims = ("daemon",)
    _proc: Optional[Proc] = None

    def _serve(self) -> int:
        args = ["--host", HOST, "--port", str(self.port),
                *to_flags(self.settings)]
        if self.root is not None:
            args += ["--pool-dir", self.root]
        self._proc = Proc("repro.service", args)
        return self._proc.ready()

    def kill(self, victim: str) -> None:
        self._check(victim)
        assert self._proc is not None
        self._proc.sigkill()

    def recover(self, victim: str) -> int:
        self._check(victim)
        return self._serve()

    def _halt(self) -> None:
        if self._proc is not None:
            self._proc.stop()


class Cluster(_Topology):
    """An N-shard :class:`ClusterSupervisor` behind one router.  A
    killed shard is not brought back *by* the harness: ``recover``
    waits for the supervisor's monitor to warm-restart it in place."""

    supervisor: Optional[ClusterSupervisor] = None

    def __init__(self, settings: Dict[str, Any], *, durable: bool,
                 shards: int = 2) -> None:
        super().__init__(settings, durable=durable)
        self.shards = shards
        self.victims = [f"shard{i}" for i in range(shards)]

    def _serve(self) -> int:
        self.supervisor = ClusterSupervisor(ClusterConfig(
            shards=self.shards, host=HOST, pool_dir=self.root,
            service=self.settings))
        self.supervisor.start()
        return self.supervisor.front_port

    def kill(self, victim: str) -> None:
        index = self.victims.index(self._check(victim))
        assert self.supervisor is not None
        self.supervisor.kill_shard(index)

    def recover(self, victim: str) -> int:
        index = self.victims.index(self._check(victim))
        assert self.supervisor is not None
        if not self.supervisor.wait_for_shard(index, timeout_s=20.0):
            raise RuntimeError(f"{victim} never restarted")
        return self.port

    def audits(self) -> Dict[str, Dict[str, Any]]:
        assert self.supervisor is not None
        return {name: fetch_audit(port) for name, port
                in zip(self.victims, self.supervisor.shard_ports)}

    def _halt(self) -> None:
        if self.supervisor is not None:
            self.supervisor.stop()


class ReplicatedPair(_Topology):
    """A durable primary process shipping semi-synchronously to a warm
    standby process.  The killed primary comes back as the standby,
    promoted onto the primary's port."""

    victims = ("primary",)

    def __init__(self, settings: Dict[str, Any], *,
                 durable: bool) -> None:
        if not durable:
            raise ValueError("a replicated pair needs a pool: only "
                             "durable state can be shipped")
        super().__init__(settings, durable=durable)
        self._procs: List[Proc] = []
        self._repl_port = 0

    def _serve(self) -> int:
        assert self.root is not None
        flags = ["--host", HOST, *to_flags(self.settings)]
        standby = Proc("repro.replication", [
            "--pool-dir", os.path.join(self.root, "standby"),
            "--listen-port", "0", *flags])
        self._procs.append(standby)
        self._repl_port = standby.ready()
        primary = Proc("repro.service", [
            "--pool-dir", os.path.join(self.root, "primary"),
            "--port", "0",
            "--replicate-to", f"{HOST}:{self._repl_port}", *flags])
        self._procs.append(primary)
        return primary.ready()

    def kill(self, victim: str) -> None:
        self._check(victim)
        self._procs.pop().sigkill()

    def recover(self, victim: str) -> int:
        self._check(victim)
        return promote(HOST, self._repl_port, self.port)

    def _halt(self) -> None:
        # A primary's shutdown drain still ships: the standby goes last.
        while self._procs:
            self._procs.pop().stop()


TOPOLOGIES = {"thread": ThreadDaemon, "process": ProcDaemon,
              "cluster": Cluster, "pair": ReplicatedPair}
