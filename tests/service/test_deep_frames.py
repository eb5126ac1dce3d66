"""A frame nested deeper than the JSON parser recurses is undecodable
like any other: a typed :class:`~repro.service.protocol.WireError`,
so its connection is dropped, nothing reaches the serving process's
stderr, and the next connection is served — by a daemon and by a
router alike."""

import subprocess

import pytest

from repro.service.client import SyncTerpClient
from repro.topology import Proc
from tests.service.rawwire import RawWire
from tests.test_frame_fuzz import DEEP


@pytest.mark.parametrize("module, extra", [
    ("repro.service", []),
    ("repro.cluster", ["--shards", "1"]),
])
def test_a_frame_too_deep_to_parse_drops_only_its_connection(module,
                                                             extra):
    proc = Proc(module, ["--port", "0", *extra], stderr=subprocess.PIPE)
    try:
        port = proc.ready()
        with RawWire(port) as wire:
            wire.hello()
            wire.sock.sendall(DEEP)
            try:
                dropped = wire.recv() is None
            except ConnectionResetError:
                dropped = True
            assert dropped, "a frame too deep to parse was answered"
        with SyncTerpClient(port=port) as client:
            assert client.ping()["sessions"] == 1
        returncode = proc.stop()             # SIGTERM, reaped
        stderr = proc.popen.stderr.read()
    finally:
        proc.stop()
        proc.popen.stderr.close()
    assert returncode == 0
    assert stderr == ""
