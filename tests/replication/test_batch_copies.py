"""A psync batch is copied once, in the store's snapshot.

Every later stage — the journal write, the ship, the standby's
receive, check, journal and home writes — takes the snapshot's pages,
or the frame they arrived in, by reference.  Each test measures the
tracemalloc peak of one commit or bootstrap above what was traced when
it began (the resident pages predate it), against the bytes it moves.

The standby runs in-process, so a primary-side peak also holds its
traced allocations: the bound holds for the primary a fortiori.  A
frame is received into an anonymous mapping, which the tracer cannot
see; the standby-side figure counts it at its full size.
"""

import json
import socket
import tracemalloc

from repro.core.units import MIB, PAGE_SIZE
from repro.pmo.pmo import Pmo
from repro.pmo.store import DurablePages, PmoStore, pack_header, page_crcs
from repro.replication.shipper import JournalShipper
from repro.replication.wire import REPL_PROTOCOL_VERSION, recv_msg, send_msg
from tests.replication.conftest import settled
from tests.replication.test_commit_order import wait_for

#: terpbench's set-up psync: 256 pages, one MiB.
PAGES = 256
BATCH = PAGES * PAGE_SIZE


def traced_peak(run):
    """The tracemalloc peak while ``run()`` runs, above what was
    traced when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def written_pmo(store, name, size):
    """A registered PMO with every page written (dirty)."""
    pmo = Pmo(1, name, size, storage=DurablePages(size))
    store.register(pmo)
    for index in range(size // PAGE_SIZE):
        pmo.storage.write(index * PAGE_SIZE,
                          bytes([index % 251]) * PAGE_SIZE)
    return pmo


def test_a_flushed_batch_costs_its_pages_once_on_the_primary(tmp_path,
                                                             standby):
    """At the parent of the same PR: 4.2× — the journal slab, the
    ship's joined payload and the framed copy came on top of the
    snapshot, and the standby's copies with them."""
    store = PmoStore(tmp_path / "primary", commit_interval_us=0)
    shipper = JournalShipper("127.0.0.1", standby.bound_port, store=store)
    store.shipper = shipper
    try:
        assert shipper.start()
        pmo = written_pmo(store, "bulk", PAGES * PAGE_SIZE)

        def flush():
            assert store.flush(pmo) == PAGES
            settled(standby)     # the standby's home write is done

        peak = traced_peak(flush)
        assert shipper.acked == shipper.shipped >= 1
    finally:
        shipper.stop()
        store.close()
    assert peak <= 1.5 * BATCH, f"{peak / BATCH:.2f}× the batch"


def test_a_shipped_batch_costs_its_frame_once_on_the_standby(standby):
    """What the standby holds of one batch frame: the buffer it is
    received into, and views of it through the CRC check, the journal
    and the home write (at the parent of the same PR: 3.1× traced —
    the joined receive, the payload slice, a ``bytes`` per page and
    the journal slab)."""
    pages = [(index, bytes([index % 251]) * PAGE_SIZE)
             for index in range(PAGES)]
    header = {"t": "batch", "pmo": "bulk", "pmo_id": 1, "seq": 1,
              "prev": 0, "pages": [[index, crc] for (index, _), crc
                                   in zip(pages, page_crcs(pages))]}
    frame = 8 + len(json.dumps(header, separators=(",", ":"))) + BATCH
    home = pack_header(Pmo(1, "bulk", BATCH, storage=DurablePages(BATCH)))
    with socket.create_connection(("127.0.0.1",
                                   standby.bound_port)) as sock:
        send_msg(sock, {"t": "hello", "version": REPL_PROTOCOL_VERSION})
        assert recv_msg(sock)[0]["t"] == "hello-ack"
        send_msg(sock, {"t": "header", "pmo": "bulk"}, home)

        def ship():
            send_msg(sock, header, [page for _, page in pages])
            assert recv_msg(sock)[0] == {"t": "ack", "pmo": "bulk",
                                         "seq": 1}
            settled(standby)

        peak = traced_peak(ship)
    assert settled(standby)["pages_applied"] == PAGES
    assert peak + frame <= 1.5 * BATCH, \
        f"{peak / BATCH:.2f}× traced + the {frame}-byte frame"


def test_a_bootstrap_ships_views_of_one_read(tmp_path, standby):
    """Bootstrapping a fully written 4 MiB PMO peaks at ≤ 1.5× its
    home file: the one read of that file, shipped as views (at the
    parent of the same PR: 4.0×, a ``bytes`` per slot and two joins
    on top, and the standby's copies with them)."""
    store = PmoStore(tmp_path / "primary", commit_interval_us=0)
    pmo = written_pmo(store, "full", 4 * MIB)
    assert store.flush(pmo) == 4 * MIB // PAGE_SIZE
    home = store.path_for("full").stat().st_size
    shipper = JournalShipper("127.0.0.1", standby.bound_port, store=store,
                             reconnect_s=60.0)
    store.shipper = shipper

    def bootstrap():
        assert shipper.start()
        wait_for(lambda: shipper.acked == shipper.shipped == 1)
        settled(standby)

    try:
        peak = traced_peak(bootstrap)
    finally:
        shipper.stop()
        store.close()
    assert standby.applier.path_for("full").read_bytes() == \
        store.path_for("full").read_bytes()
    assert peak <= 1.5 * home, f"{peak / home:.2f}× the home file"
