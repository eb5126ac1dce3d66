"""A PMO's bytes across process boundaries: what one library's
durable store flushes, ``PmoStore.load_all`` rebuilds in the next run
(header validation, redo-log replay, allocator rescan)."""

from repro.core.units import MIB
from repro.pmo.api import PmoLibrary
from repro.pmo.store import PmoStore
from repro.workloads.structures import PersistentHashMap


def flushed(tmp_path, name, size=8 * MIB):
    """A library on a store in ``tmp_path`` and a fresh PMO in it."""
    store = PmoStore(tmp_path)
    lib = PmoLibrary(store=store)
    return store, lib.PMO_create(name, size)


def reload(tmp_path):
    """The next run: rescan the pool directory."""
    report = PmoStore(tmp_path).load_all()
    return {pmo.name: pmo for pmo in report.loaded}, report


class TestSaveLoad:
    def test_roundtrip_preserves_data(self, tmp_path):
        store, pmo = flushed(tmp_path, "persist")
        oid = pmo.pmalloc(64)
        pmo.write(oid.offset, b"across processes")
        store.flush(pmo)
        loaded = reload(tmp_path)[0]["persist"]
        assert loaded.pmo_id == pmo.pmo_id
        assert loaded.size_bytes == 8 * MIB
        assert loaded.read(oid.offset, 16) == b"across processes"

    def test_sparse_file_is_compact(self, tmp_path):
        # A 64MB PMO with only a few pages touched must occupy far
        # less than its logical size.
        store, pmo = flushed(tmp_path, "big", 64 * MIB)
        pmo.write(pmo.pmalloc(64).offset, b"x")
        store.flush(pmo)
        assert store.path_for("big").stat().st_size < 4 * MIB

    def test_structure_survives_roundtrip(self, tmp_path):
        store, pmo = flushed(tmp_path, "hm")
        table = PersistentHashMap.create(pmo, 32)
        for i in range(50):
            table.put(f"k{i}".encode(), f"v{i}".encode())
        store.flush(pmo)
        reopened = PersistentHashMap.open(reload(tmp_path)[0]["hm"])
        assert len(reopened) == 50
        assert reopened.get(b"k31") == b"v31"

    def test_open_transaction_discarded_on_load(self, tmp_path):
        """Flushing mid-transaction equals crashing there: the redo
        log has no commit record, so recovery drops the writes."""
        store, pmo = flushed(tmp_path, "tx")
        oid = pmo.pmalloc(32)
        pmo.begin_tx()
        pmo.write(oid.offset, b"uncommitted")
        store.flush(pmo)
        loaded = reload(tmp_path)[0]["tx"]
        assert loaded.read(oid.offset, 11) == b"\x00" * 11

    def test_allocator_usable_after_load(self, tmp_path):
        store, pmo = flushed(tmp_path, "alloc")
        pmo.pmalloc(128)
        store.flush(pmo)
        loaded = reload(tmp_path)[0]["alloc"]
        oid = loaded.pmalloc(64)
        loaded.write(oid.offset, b"new data")
        assert loaded.read(oid.offset, 8) == b"new data"


class TestFormatValidation:
    def test_bad_magic_rejected(self, tmp_path):
        store, pmo = flushed(tmp_path, "good")
        store.flush(pmo)
        (tmp_path / "junk.pmo").write_bytes(b"NOTAPMO!" + b"\x00" * 64)
        loaded, report = reload(tmp_path)
        assert list(loaded) == ["good"]
        assert [name for name, _ in report.denied] == ["junk.pmo"]
