"""The pool's on-media format is pinned by its bytes, not by the
functions that write them.

``fixtures/media_at_parent.json`` was captured by running this file as
a script at the parent commit of the PR that gave the format one
packer and one unpacker per part (``python tests/pmo/test_media_format
.py`` with ``PYTHONPATH=src:.``): for one fixed drive — create, three
psyncs, a torn flush, recovery of a copy, a scrub repair, the flush
that heals the kept journal, a bit-rot flush, a destroy and a
re-create — the sha256 of every ``.pmo`` / ``.journal`` file after
each step, on the primary and on the standby's mirror.  A change to
how the store reads or writes must reproduce it byte for byte.

The second half is a property of the one slot reader: whatever the
last slot of a home file is cut down to, every consumer gives the same
answer to "which pages exist".
"""

import hashlib
import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.units import KIB, MIB, PAGE_SIZE
from repro.faults.plan import FaultPlan, FaultRule
from repro.pmo.api import PmoLibrary
from repro.pmo.pmo import Pmo
from repro.pmo.store import SLOT_SIZE, DurablePages, PmoStore
from repro.replication import JournalShipper, StandbyDaemon

FIXTURE = Path(__file__).parent / "fixtures" / "media_at_parent.json"


def digests(*roots):
    """``{"<root>/<file>": sha256}`` for every pool file."""
    return {f"{root.name}/{path.name}":
            hashlib.sha256(path.read_bytes()).hexdigest()
            for root in roots for path in sorted(root.iterdir())
            if path.suffix in (".pmo", ".journal")}


def wait_for(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.002)


def one_fault(site):
    """A plan that hits the second page of the next flush."""
    return FaultPlan(seed=7, rules=[
        FaultRule(site=site, kind="torn", count=1, after=1)])


def drive(tmp):
    """Run the fixed sequence; ``[[step, digests], ...]``."""
    primary, mirror = tmp / "primary", tmp / "standby"
    standby = StandbyDaemon(mirror)
    standby.start()
    store = PmoStore(primary, commit_interval_us=0)
    shipper = JournalShipper("127.0.0.1", standby.bound_port,
                             store=store, reconnect_s=60.0)
    store.shipper = shipper
    assert shipper.start()
    lib = PmoLibrary(store=store)
    steps = []

    def applied():
        # Under the applier's lock: after the home write of the batch
        # whose ack released the last psync.
        return standby.applier.status()["applied"].get("fmt")

    def step(name, *extra):
        applied()
        steps.append([name, digests(primary, mirror, *extra)])

    def psync(pmo, oid, fill, pages):
        with lib.thread(1):
            lib.write(oid, bytes([fill]) * (pages * PAGE_SIZE - 96))
            return lib.psync(pmo)

    try:
        pmo = lib.PMO_create("fmt", MIB, mode=0o640)
        wait_for(lambda: applied() == 0)
        step("create")
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 8 * PAGE_SIZE)
        for number, pages in enumerate((1, 3, 5), 1):
            psync(pmo, oid, number, pages)
            step(f"psync-{number}")

        store.faults = one_fault("store.torn_page")
        psync(pmo, oid, 4, 4)
        store.faults = None
        step("torn-flush")
        assert store.journal_path_for("fmt").exists()

        image = tmp / "recovered"
        shutil.copytree(primary, image)
        report = PmoStore(image).load_all()
        assert report.journals_applied == 1 and report.pages_repaired
        step("recovered-copy", image)
        shutil.rmtree(image)

        assert store.scrub(64)["repaired"] == 1
        step("scrub-repair")
        psync(pmo, oid, 5, 2)             # applies the kept journal
        step("psync-over-kept-journal")

        store.faults = one_fault("store.bit_rot")
        psync(pmo, oid, 6, 3)
        store.faults = None
        step("rot-flush")

        lib.tick(1_000_000)               # past the EW target: unmaps
        with lib.thread(1):
            lib.detach(pmo)
        lib.PMO_destroy("fmt")
        wait_for(lambda: applied() is None)
        step("destroy")
        pmo = lib.PMO_create("fmt", 2 * MIB)
        with lib.thread(1):
            lib.attach(pmo)
            oid = lib.pmalloc(pmo, 2 * PAGE_SIZE)
        psync(pmo, oid, 7, 2)
        step("re-create")
    finally:
        shipper.stop()
        store.close()
        standby.stop()
    return steps


def test_media_bytes_match_the_parent(tmp_path):
    assert drive(tmp_path) == json.loads(FIXTURE.read_text())


def test_every_reader_agrees_on_a_truncated_last_slot(tmp_path):
    """``present_pages`` (trailer scan), ``committed_state`` (scan +
    CRC) and ``load_all`` (recovery) on one home file cut at every
    byte offset of its last slot: the same pages exist for all three
    — the cut slot for none of them until its last byte is there."""
    store = PmoStore(tmp_path / "whole", fsync=False)
    # A small log keeps the file (rewritten 4105 times) a few slots.
    pmo = Pmo(1, "cut", 64 * KIB, log_size=PAGE_SIZE,
              storage=DurablePages(64 * KIB))
    store.register(pmo)
    pmo.write(pmo.pmalloc(64).offset, b"\x5a" * 64)
    # The last slot: a page inside the heap's free space, so that
    # recovery walks the same heap with and without it.
    pmo.storage.write(6 * PAGE_SIZE, b"\xa5" * PAGE_SIZE)
    assert store.flush(pmo) >= 3
    whole = store.path_for("cut").read_bytes()
    pages = store.present_pages("cut")
    store.close()
    last = len(whole) - SLOT_SIZE
    assert pages and (len(whole) - PAGE_SIZE) % SLOT_SIZE == 0

    root = tmp_path / "cut"
    root.mkdir()
    for keep in range(SLOT_SIZE + 1):
        (root / store.path_for("cut").name).write_bytes(
            whole[:last + keep])
        fresh = PmoStore(root, fsync=False)
        report = fresh.load_all()
        assert not report.denied and not report.quarantined
        expected = pages if keep == SLOT_SIZE else pages[:-1]
        assert fresh.present_pages("cut") == expected, keep
        assert [i for i, _ in fresh.committed_state("cut")[2]] == \
            expected, keep
        assert sorted(report.loaded[0].storage._pages) == expected, keep


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        first = drive(Path(scratch) / "a")
        assert first == drive(Path(scratch) / "b"), "not deterministic"
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(first, indent=1) + "\n")
    print(f"wrote {FIXTURE} ({len(first)} steps)")
