#!/usr/bin/env python3
"""Quickstart: create a PMO, protect it with TERP, and watch the
exposure windows.

Walks the whole public API surface in one sitting:

1. create and attach a persistent memory object (Table I API);
2. store data through crash-consistent transactions;
3. see the EW-conscious semantics lower detaches to thread-permission
   changes (the PMO stays mapped, the thread loses access);
4. survive a simulated crash and reboot;
5. read the exposure-window report TERP is named after.
"""

from repro import Access, PmoLibrary, ProtectionFault
from repro.core.units import MIB, us
from repro.sim.stats import collect_exposure
from repro.workloads.structures import PersistentHashMap


def main() -> None:
    lib = PmoLibrary(ew_target_us=40.0)

    # -- 1. create + attach -------------------------------------------------
    pmo = lib.PMO_create("quickstart", 16 * MIB)
    handle = lib.attach(pmo, Access.RW)
    print(f"attached {pmo.name!r} "
          f"(base VA {handle.base_va_at_attach:#x})")

    # -- 2. persistent data, crash-consistently ------------------------------
    table = PersistentHashMap.create(pmo, nbuckets=64)
    for i in range(100):
        table.put(f"key-{i}".encode(), f"value-{i}".encode())
    lib.tick(us(5))
    print(f"stored {len(table)} entries; "
          f"key-42 -> {table.get(b'key-42').decode()}")

    # -- 3. EW-conscious detach: lowered, not unmapped -----------------------
    lib.detach(pmo)   # well before the 40us target
    mapped = lib.runtime.space.is_attached(pmo.pmo_id)
    print(f"after early detach: PMO still mapped? {mapped} "
          "(detach lowered to a thread-permission revoke)")
    oid = table._root
    try:
        lib.read(oid, 8)
    except ProtectionFault as exc:
        print(f"but this thread can no longer touch it: {exc}")

    # A detach after the EW target really unmaps.
    lib.attach(pmo, Access.RW)
    lib.tick(us(41))
    lib.detach(pmo)
    print(f"after late detach: PMO still mapped? "
          f"{lib.runtime.space.is_attached(pmo.pmo_id)}")

    # -- 4. crash and recover ---------------------------------------------------
    lib.tick(us(60))   # PMO-free computation (windows stay closed)
    lib.manager.simulate_reboot()
    reopened = lib.PMO_open("quickstart")
    recovered = PersistentHashMap.open(reopened)
    print(f"after reboot: {len(recovered)} entries survive; "
          f"key-7 -> {recovered.get(b'key-7').decode()}")

    # -- 5. the exposure report ----------------------------------------------------
    lib.runtime.finish(lib.clock_ns)
    [report] = collect_exposure(lib.runtime.monitor, lib.clock_ns,
                                num_threads=1)
    print(f"exposure: EW avg {report.ew_avg_us:.1f}us "
          f"(max {report.ew_max_us:.1f}us), "
          f"ER {report.er_percent:.1f}%, "
          f"TEW avg {report.tew_avg_us:.1f}us, "
          f"TER {report.ter_percent:.1f}%")


if __name__ == "__main__":
    main()
