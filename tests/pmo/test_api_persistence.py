"""A PMO the durable store wrote recovers into a second library:
``PmoStore.load_all`` then ``PmoManager.adopt``, as warm restart does."""

import pytest

from repro.core.errors import PmoError
from repro.core.permissions import Access
from repro.core.units import MIB
from repro.pmo.api import PmoLibrary
from repro.pmo.store import PmoStore
from repro.workloads.structures import PersistentHashMap


def loaded(tmp_path):
    """Every PMO the pool directory holds, rebuilt by a fresh store."""
    return PmoStore(tmp_path).load_all().loaded


def reload(tmp_path):
    """The next run: a second library on the same pool directory adopts
    everything its store recovers."""
    store = PmoStore(tmp_path)
    lib = PmoLibrary(store=store)
    return lib, [lib.manager.adopt(pmo) for pmo in store.load_all().loaded]


class TestLibrarySaveLoad:
    def test_roundtrip_through_two_libraries(self, tmp_path):
        """A PMO written by one 'process run' loads in another."""
        first = PmoLibrary(store=PmoStore(tmp_path))
        pmo = first.PMO_create("store", 8 * MIB)
        first.attach(pmo, Access.RW)
        table = PersistentHashMap.create(pmo, 32)
        table.put(b"survives", b"processes")
        first.psync(pmo)

        _, [pmo2] = reload(tmp_path)
        assert pmo2.name == "store"
        assert pmo2.pmo_id == pmo.pmo_id   # OIDs stay valid
        reopened = PersistentHashMap.open(pmo2)
        assert reopened.get(b"survives") == b"processes"

    def test_loaded_pmo_attachable_and_usable(self, tmp_path):
        first = PmoLibrary(store=PmoStore(tmp_path))
        pmo = first.PMO_create("p", 8 * MIB)
        oid = first.pmalloc(pmo, 64)
        first.psync(pmo)

        second, [pmo2] = reload(tmp_path)
        second.attach(pmo2, Access.RW)
        second.write(oid, b"written after load")
        second.tick(10)
        assert second.read(oid, 18) == b"written after load"

    def test_pfree_works_after_load(self, tmp_path):
        """The acid test for id preservation: stored OIDs still free."""
        first = PmoLibrary(store=PmoStore(tmp_path))
        pmo = first.PMO_create("p", 8 * MIB)
        oid = first.pmalloc(pmo, 64)
        first.psync(pmo)
        second, [pmo2] = reload(tmp_path)
        second.pfree(oid)   # must not raise
        assert not pmo2.heap.is_allocated(oid.offset - pmo2._heap_base)

    def test_name_collision_rejected(self, tmp_path):
        lib = PmoLibrary(store=PmoStore(tmp_path))
        lib.PMO_create("p", 8 * MIB)
        [pmo] = loaded(tmp_path)
        with pytest.raises(PmoError):
            lib.manager.adopt(pmo)   # "p" already exists here

    def test_id_collision_rejected(self, tmp_path):
        PmoLibrary(store=PmoStore(tmp_path)).PMO_create("p", 8 * MIB)
        second = PmoLibrary()
        second.PMO_create("other", 8 * MIB)  # takes id 1
        [pmo] = loaded(tmp_path)
        with pytest.raises(PmoError):
            second.manager.adopt(pmo)

    def test_adopt_advances_id_allocator(self, tmp_path):
        first = PmoLibrary(store=PmoStore(tmp_path))
        for i in range(3):
            first.PMO_create(f"p{i}", 8 * MIB)
        second, adopted = reload(tmp_path)
        assert max(pmo.pmo_id for pmo in adopted) == 3
        fresh = second.PMO_create("fresh", 8 * MIB)
        assert fresh.pmo_id > 3
