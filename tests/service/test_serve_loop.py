"""``launch.serve`` / ``launch.wait_for_signal``: a daemon that has said
it is ready can be stopped cleanly at once.

Every ``python -m`` entry point used to print its banner (or send its
port up the supervisor's pipe) and only then install its SIGTERM
handler, so a harness that stopped a child the instant it was ready
got the default action — rc -15, no ``stop()``, no drain.  The one
serve loop installs the handlers first.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

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
        assert [code for code, _ in outcomes] == [0] * SPAWNS
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
