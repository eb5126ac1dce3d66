"""Shipper -> standby applier: live replay, bootstrap, chain safety.

These tests run a real :class:`JournalShipper` against a real
:class:`StandbyDaemon` over localhost TCP.  Because the shipper runs
semi-synchronously (a commit ticket retires only after the standby
acks the batch's committed journal, and the applier holds its lock
from there through the home write), every assertion after a returned
``psync`` can inspect the standby's pool directory without sleeping,
once it has taken that lock (``conftest.settled``).
"""

import socket
import struct
import threading
import time
import zlib

import pytest

from repro.core.units import MIB, PAGE_SIZE
from repro.pmo.api import PmoLibrary
from repro.pmo.store import PmoStore, page_crcs
from repro.replication.applier import JournalApplier, ReplicationChainError
from repro.replication.shipper import JournalShipper
from tests.replication.conftest import settled


def make_primary(tmp_path, standby, *, connect=True):
    store = PmoStore(tmp_path / "primary")
    shipper = JournalShipper("127.0.0.1", standby.bound_port,
                             store=store)
    store.shipper = shipper
    if connect:
        assert shipper.start()
    lib = PmoLibrary(store=store)
    return store, shipper, lib


def commit_rounds(lib, store, name, rounds=3):
    pmo = lib.PMO_create(name, MIB)
    with lib.thread(1):
        lib.attach(pmo)
        oid = lib.pmalloc(pmo, 4096)
        for r in range(rounds):
            lib.write(oid, bytes([r + 1]) * 512)
            lib.psync(pmo)
        lib.detach(pmo)
    return pmo, oid


def data_segs_out(sock):
    """The socket's ``tcpi_data_segs_out`` (Linux >= 4.6), or None."""
    if not hasattr(socket, "TCP_INFO"):
        return None
    info = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_INFO, 256)
    return struct.unpack_from("I", info, 156)[0] if len(info) >= 160 \
        else None


class TestLiveReplay:
    def test_acked_batches_are_on_standby_media(self, tmp_path,
                                                standby):
        store, shipper, lib = make_primary(tmp_path, standby)
        commit_rounds(lib, store, "live", rounds=4)
        status = shipper.status()
        assert status["connected"]
        assert status["shipped"] >= 1
        assert status["acked"] == status["shipped"]
        assert status["lag"] == 0
        # The standby's pool holds byte-identical committed pages,
        # home: nothing is left for recovery to replay.
        _, primary_seq, primary_pages = store.committed_state("live")
        settled(standby)
        mirror = PmoStore(tmp_path / "standby")
        report = mirror.load_all()
        assert len(report.loaded) >= 1 and not report.journals_applied
        _, _, mirror_pages = mirror.committed_state("live")
        assert mirror_pages == primary_pages
        # The applier's chain head tracks the primary's flush_seq
        # (flush_seq itself is an in-memory counter that resets on a
        # fresh load, so compare at the applier).
        assert settled(standby)["applied"]["live"] == primary_seq
        assert standby.applier.chain_errors == 0
        shipper.stop()
        store.close()

    def test_destroy_propagates(self, tmp_path, standby):
        store, shipper, lib = make_primary(tmp_path, standby)
        commit_rounds(lib, store, "victim")
        path = standby.applier.path_for("victim")
        assert path.exists()
        store.destroy("victim")
        deadline = time.monotonic() + 5.0
        while path.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not path.exists()
        shipper.stop()
        store.close()

    def test_journal_records_are_mirrored(self, tmp_path, standby):
        store, shipper, lib = make_primary(tmp_path, standby)
        shipper.ship_journal({"kind": "session", "sid": 7,
                              "user": "alice"})
        # A lone record on an idle link waits out the kernel's cork
        # timer (<= 200 ms): it was queued on the corked socket.
        deadline = time.monotonic() + 5.0
        while standby.applier.journal_records == 0 and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        assert standby.applier.journal_records == 1
        shipper.stop()
        store.close()

    def test_journal_record_rides_the_next_batch(self, tmp_path,
                                                 standby):
        """A corked record leaves with the next batch, ahead of it in
        the stream: it is applied before that batch is acked, so no
        poll is needed once the ``psync`` has returned."""
        store, shipper, lib = make_primary(tmp_path, standby)
        pmo, oid = commit_rounds(lib, store, "r", rounds=1)
        shipper.ship_journal({"rec": "attach", "sid": 7, "pmo": "r"})
        with lib.thread(1):
            lib.attach(pmo)
            lib.write(oid, b"next batch")
            lib.psync(pmo)
            lib.detach(pmo)
        assert standby.applier.journal_records == 1
        shipper.stop()
        store.close()

    def test_one_data_segment_per_batch(self, tmp_path, standby):
        """A record mirrored while a batch is un-acked waits for the
        next batch's segment, not for the ack: it used to leave alone
        when the ack came in, 2 segments per round.  Counted by the
        socket itself (``tcpi_data_segs_out``)."""
        store, shipper, lib = make_primary(tmp_path, standby)
        pmo = lib.PMO_create("segs", MIB)
        if data_segs_out(shipper._sock) is None:
            pytest.skip("no tcpi_data_segs_out in this kernel's tcp_info")
        segments = []
        for seq in range(1, 7):
            pages = [(0, page(seq))]
            before = data_segs_out(shipper._sock)
            target = shipper.send_commit("segs", pmo.pmo_id, seq, pages,
                                         page_crcs(pages))
            shipper.ship_journal({"rec": "attach", "sid": seq,
                                  "pmo": "segs"})
            shipper.await_commit("segs", target)
            segments.append(data_segs_out(shipper._sock) - before)
        assert segments == [1] * 6
        assert shipper.status()["acked"] == shipper.status()["shipped"]
        # The last record, with no batch behind it, leaves on the
        # kernel's cork timer.
        deadline = time.monotonic() + 5.0
        while standby.applier.journal_records < 6 and \
                time.monotonic() < deadline:
            time.sleep(0.01)
        assert standby.applier.journal_records == 6
        shipper.stop()
        store.close()


class TestReconcilingBootstrap:
    def test_destroy_while_link_down_reconciles(self, tmp_path,
                                                standby):
        """A destroy the link was down for is unshippable — the
        reconnect bootstrap's reset frame must prune it from the
        mirror so a later promotion cannot resurrect it."""
        store = PmoStore(tmp_path / "primary")
        shipper = JournalShipper("127.0.0.1", standby.bound_port,
                                 store=store, reconnect_s=60.0)
        store.shipper = shipper
        assert shipper.start()
        lib = PmoLibrary(store=store)
        commit_rounds(lib, store, "victim")
        commit_rounds(lib, store, "keeper")
        victim = standby.applier.path_for("victim")
        assert victim.exists()
        shipper._drop_connection("test: link down")
        store.destroy("victim")
        assert victim.exists()          # the destroy was lost...
        assert shipper._connect_once()  # ...until the bootstrap
        # (the applier unlinks the file, then forgets the name)
        deadline = time.monotonic() + 5.0
        while (victim.exists() or "victim" in standby.applier.applied) \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not victim.exists()
        assert standby.applier.path_for("keeper").exists()
        assert "victim" not in standby.applier.applied
        shipper.stop()
        store.close()

    def test_register_vs_bootstrap_lock_order(self, tmp_path,
                                              standby):
        """Regression: register() used to call the shipper's hooks
        while holding the store lock; with the dialer's bootstrap
        holding the send lock across committed_state() (which takes
        the store lock) that was an ABBA deadlock."""
        store, shipper, lib = make_primary(tmp_path, standby)
        commit_rounds(lib, store, "existing")
        entered = threading.Event()
        registered = threading.Event()

        def bootstrap_side():
            with shipper._send_lock:     # exactly as the dialer does
                entered.set()
                time.sleep(0.1)          # let register reach its hook
                store.committed_state("existing")

        boot = threading.Thread(target=bootstrap_side, daemon=True)
        boot.start()
        assert entered.wait(2.0)
        reg = threading.Thread(
            target=lambda: (lib.PMO_create("fresh", MIB),
                            registered.set()),
            daemon=True)
        reg.start()
        assert registered.wait(5.0), \
            "register deadlocked against a concurrent bootstrap"
        boot.join(5.0)
        assert not boot.is_alive()
        shipper.stop()
        store.close()


class TestConnectionRobustness:
    def test_stale_socket_drop_is_noop(self, tmp_path, standby):
        """A stale ack-reader from a dropped link must not tear down
        the connection the dialer has since re-established."""
        store, shipper, lib = make_primary(tmp_path, standby)
        current = shipper._sock
        stale = socket.socket()
        shipper._drop_connection("stale reader", stale)
        assert shipper.connected
        assert shipper._sock is current
        stale.close()
        shipper._drop_connection("real", current)
        assert not shipper.connected
        shipper.stop()
        store.close()

    def test_send_timeout_is_bounded(self, tmp_path, standby):
        """The replication socket carries a kernel send timeout: a
        standby that stops reading degrades shipping instead of
        parking group commits in sendall()."""
        store, shipper, lib = make_primary(tmp_path, standby)
        raw = shipper._sock.getsockopt(
            socket.SOL_SOCKET, socket.SO_SNDTIMEO, 16)
        sec, usec = struct.unpack("ll", raw[:struct.calcsize("ll")])
        assert sec + usec / 1e6 == \
            pytest.approx(shipper.ack_timeout_s, abs=0.01)
        shipper.stop()
        store.close()


class TestBootstrap:
    def test_preexisting_commits_bootstrap_on_connect(self, tmp_path,
                                                      standby):
        """Data committed before the shipper ever connected reaches
        the standby through the bootstrap snapshot."""
        store, shipper, lib = make_primary(tmp_path, standby,
                                           connect=False)
        commit_rounds(lib, store, "early", rounds=2)
        assert shipper.status()["dropped"] >= 1     # degraded, not lost
        assert shipper.start()
        # Bootstrap ships under the send lock during connect; a live
        # commit afterwards must chain cleanly on top of it.
        commit_rounds(lib, store, "late", rounds=1)
        settled(standby)
        mirror = PmoStore(tmp_path / "standby")
        mirror.load_all()
        assert mirror.committed_state("early")[2] == \
            store.committed_state("early")[2]
        assert standby.applier.chain_errors == 0
        shipper.stop()
        store.close()


def page(fill):
    return bytes([fill]) * PAGE_SIZE


def batch_args(seq, prev, *indexed_pages):
    meta = [[idx, zlib.crc32(img)] for idx, img in indexed_pages]
    payload = b"".join(img for _, img in indexed_pages)
    return seq, prev, meta, payload


class TestApplierChain:
    def test_gap_raises_chain_error(self, tmp_path):
        applier = JournalApplier(tmp_path)
        applier.apply_header("p", bytes(PAGE_SIZE))
        applier.apply_batch("p", *batch_args(2, 0, (0, page(1))))
        with pytest.raises(ReplicationChainError):
            applier.apply_batch("p", *batch_args(7, 5,
                                                 (1, page(2))))
        assert applier.chain_errors == 1
        # The chain head is untouched by the refused batch.
        assert applier.applied["p"] == 2
        applier.close()

    def test_bootstrap_reset_restores_chain(self, tmp_path):
        applier = JournalApplier(tmp_path)
        applier.apply_header("p", bytes(PAGE_SIZE))
        applier.apply_batch("p", *batch_args(3, 0, (0, page(1))))
        # prev == -1 is the bootstrap reset: a reconnecting shipper
        # re-snapshots and the chain restarts from the snapshot seq.
        applier.apply_batch("p", *batch_args(9, -1, (0, page(2))))
        applier.apply_batch("p", *batch_args(11, 9, (1, page(3))))
        assert applier.applied["p"] == 11
        applier.close()

    def test_header_truncates_stale_generation(self, tmp_path):
        """A (re)shipped header drops the mirror to the bare header:
        stale pages from a prior generation never outlive the
        bootstrap snapshot that follows."""
        applier = JournalApplier(tmp_path)
        applier.apply_header("p", bytes(PAGE_SIZE))
        applier.apply_batch("p", *batch_args(4, 0, (0, page(1)),
                                             (1, page(2))))
        grown = applier.path_for("p").stat().st_size
        applier.apply_header("p", bytes(PAGE_SIZE))
        assert applier.path_for("p").stat().st_size < grown
        assert applier.applied["p"] == 0
        applier.apply_batch("p", *batch_args(9, -1, (0, page(3))))
        assert applier.applied["p"] == 9
        applier.close()

    def test_reset_prunes_unlisted_pmos(self, tmp_path):
        applier = JournalApplier(tmp_path)
        applier.apply_header("gone", bytes(PAGE_SIZE))
        applier.apply_header("kept", bytes(PAGE_SIZE))
        applier.apply_batch("kept", *batch_args(1, 0, (0, page(1))))
        applier.apply_journal({"rec": "epoch", "wall_ns": 1})
        applier.apply_reset(["kept"])
        assert not applier.path_for("gone").exists()
        assert applier.path_for("kept").exists()
        assert "gone" not in applier.applied
        assert applier.applied["kept"] == 1
        # The mirrored session journal restarts: the primary re-ships
        # it in full right after the reset.
        assert not applier._journal.path.exists()
        applier.close()

    def test_batch_before_header_raises(self, tmp_path):
        applier = JournalApplier(tmp_path)
        with pytest.raises(ReplicationChainError):
            applier.apply_batch("ghost", *batch_args(1, -1,
                                                     (0, page(1))))
        applier.close()

    def test_crc_mismatch_raises(self, tmp_path):
        applier = JournalApplier(tmp_path)
        applier.apply_header("p", bytes(PAGE_SIZE))
        seq, prev, meta, payload = batch_args(1, 0, (0, page(1)))
        meta[0][1] ^= 0xFF
        with pytest.raises(Exception):
            applier.apply_batch("p", seq, prev, meta, payload)
        applier.close()

    def test_short_payload_raises(self, tmp_path):
        applier = JournalApplier(tmp_path)
        applier.apply_header("p", bytes(PAGE_SIZE))
        seq, prev, meta, payload = batch_args(1, 0, (0, page(1)))
        with pytest.raises(Exception):
            applier.apply_batch("p", seq, prev, meta,
                                payload[:-1])
        applier.close()
