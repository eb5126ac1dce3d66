"""``launch.serve`` / ``launch.wait_for_signal``: a daemon that has said
it is ready can be stopped cleanly at once.

Every ``python -m`` entry point used to print its banner (or send its
port up the supervisor's pipe) and only then install its SIGTERM
handler, so a harness that stopped a child the instant it was ready
got the default action — rc -15, no ``stop()``, no drain.  The one
serve loop installs the handlers first, and ignores every signal after
the first.  What a stopped daemon leaves behind — exit 0, a quiet
stderr, its ``--profile`` and ``--metrics-dump`` files — is pinned here
too.
"""

import json
import os
import pstats
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.core.units import MIB
from repro.service.client import SyncTerpClient
from repro.topology import Proc

SPAWNS = 20


def spawn_and_stop_at_the_banner(module, args):
    proc = Proc(module, args)
    try:
        proc.ready()
    finally:
        code = proc.stop()               # SIGTERM, this instant
    return code, list(proc.lines)


class TestSigtermAtTheBanner:
    @pytest.mark.parametrize("module, args", [
        ("repro.service", ["--port", "0"]),
        ("repro.replication", ["--listen-port", "0"]),
    ])
    def test_exit_code_is_zero_every_time(self, module, args, tmp_path):
        def one(index):
            own = args + (["--pool-dir", str(tmp_path / str(index))]
                          if module == "repro.replication" else [])
            return spawn_and_stop_at_the_banner(module, own)

        # A few at a time: each still gets its SIGTERM the moment its
        # own banner is read.
        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(one, range(SPAWNS)))
        # Each failing child by its exit code and its last words.
        assert {index: (code, lines[-5:])
                for index, (code, lines) in enumerate(outcomes)
                if code != 0} == {}
        if module == "repro.service":
            # ``stop()`` ran: the shutdown report follows the banner.
            assert all("terpd final metrics:" in lines
                       for _, lines in outcomes)

    def test_a_durable_daemon_stopped_by_sigterm_restarts_clean(
            self, tmp_path):
        args = ["--port", "0", "--pool-dir", str(tmp_path)]
        first = Proc("repro.service", args)
        try:
            with SyncTerpClient(port=first.ready()) as client:
                client.create("kept", MIB)
                client.attach("kept")
                oid = client.pmalloc("kept", 64)
                client.write(oid, b"psynced before SIGTERM")
                client.psync("kept")
                # Still attached: shutdown must detach and drain.
        finally:
            assert first.stop() == 0
        second = Proc("repro.service", args)
        try:
            with SyncTerpClient(port=second.ready()) as client:
                recovery = client.metrics()["recovery"]
                assert recovery["pmos_loaded"] == 1
                assert recovery["pmos_quarantined"] == []
                client.attach("kept")
                assert client.read(oid, 22) == b"psynced before SIGTERM"
        finally:
            assert second.stop() == 0


def test_a_process_group_sigterm_stops_a_cluster_quietly():
    """``Proc.stop`` signals the child's whole group, so each shard
    takes the group's SIGTERM and then the supervisor's own, as from
    terpbench or a terminal's Ctrl-C.  The repeat used to reach
    asyncio's wakeup fd after the loop had closed it (a stderr
    traceback in up to 2 of 10 stops)."""
    def one(_):
        proc = Proc("repro.cluster", ["--port", "0", "--shards", "2"],
                    stderr=subprocess.PIPE)
        try:
            proc.ready()
            return proc.stop(), proc.popen.stderr.read()
        finally:
            proc.stop()
            proc.popen.stderr.close()

    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(one, range(SPAWNS))) == [(0, "")] * SPAWNS


def test_a_profile_is_dumped_at_shutdown(tmp_path):
    path = tmp_path / "terpd.prof"
    code, lines = spawn_and_stop_at_the_banner(
        "repro.service", ["--port", "0", "--profile", str(path)])
    assert code == 0, lines
    assert pstats.Stats(str(path)).total_calls > 0


def test_metrics_are_dumped_at_shutdown(tmp_path):
    path = tmp_path / "dump.json"
    code, lines = spawn_and_stop_at_the_banner(
        "repro.service", ["--port", "0", "--metrics-dump", str(path)])
    assert code == 0, lines
    dump = json.loads(path.read_text())
    for key in ("enabled", "metrics", "audit", "trace", "service"):
        assert key in dump, key
    assert "per_pmo" in dump["audit"]


#: A node whose ``stop()`` takes a repeat SIGTERM in the window a
#: cluster shutdown opens: the group's signal started the drain, and the
#: supervisor's own lands once the loop's wakeup fd is closed but still
#: registered (stood in for here by a closed socket).
REPEAT_IN_THE_DRAIN = """
import asyncio, os, signal, socket
from repro.service.launch import serve

class Node:
    bound_port = 0

    async def start(self):
        pass

    async def stop(self):
        a, b = socket.socketpair()
        b.setblocking(False)
        previous = signal.set_wakeup_fd(b.fileno())
        a.close()
        b.close()
        os.kill(os.getpid(), signal.SIGTERM)
        signal.set_wakeup_fd(previous)
        await asyncio.sleep(0.05)
        print("drained", flush=True)

asyncio.run(serve(
    Node(), ready=lambda port: os.kill(os.getpid(), signal.SIGTERM)))
"""


def test_a_repeated_sigterm_neither_kills_the_drain_nor_is_written():
    """At the parent the repeat reached the closed wakeup fd: ``Exception
    ignored when trying to write to the signal wakeup fd ... [Errno 9]``
    on stderr, as in 1 of 20 process-group stops of a 2-shard cluster."""
    src = os.path.dirname(repro.__path__[0])
    proc = subprocess.run(
        [sys.executable, "-c", REPEAT_IN_THE_DRAIN], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "drained\n", "")
