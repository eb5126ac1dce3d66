#!/usr/bin/env python3
"""Multiple clients share a PMO through a terpd daemon.

The earlier version of this example faked processes inside one
interpreter; now the real service layer does the work.  A terpd
daemon owns the PMO library; each client connects over a socket and
gets its own session — its own TERP entity, its own grants, its own
exposure budget.  The story is unchanged:

* alice publishes a world-readable PMO and writes to it;
* bob (a different user, different connection) attaches read-only and
  reads alice's committed data — his write attempt faults;
* mallory is refused by mode bits before TERP is consulted;
* a tenant that sits on its attach past the session EW budget is
  force-detached by the daemon's sweeper — crashed or malicious
  clients cannot hold a window open.

Run::

    PYTHONPATH=src python examples/multiprocess_sharing.py
"""

import time

from repro.core.units import MIB
from repro.service.client import RemoteError, SyncTerpClient
from repro.service.server import ServiceThread, TerpService


def main() -> None:
    service = TerpService(port=0,
                          session_ew_ns=50_000_000,    # 50ms budget
                          sweep_period_ns=10_000_000,  # 10ms sweeps
                          seed=11)
    with ServiceThread(service) as svc:
        port = svc.bound_port
        print(f"terpd listening on 127.0.0.1:{port}\n")

        with SyncTerpClient(port=port, user="alice") as alice, \
                SyncTerpClient(port=port, user="bob") as bob, \
                SyncTerpClient(port=port, user="mallory") as mallory:
            alice.create("market-data", 16 * MIB, mode=0o644)
            print("alice created 'market-data' (mode 644)")

            result = alice.attach("market-data")
            print(f"alice attach -> {result['outcome']} "
                  f"({result['reason']})")
            oid = alice.pmalloc("market-data", 64)
            alice.tx_begin("market-data")
            alice.write(oid, b"price: 42.17")
            flushed = alice.psync("market-data")
            print(f"alice wrote and psync'd ({flushed} pending write)")

            # bob's attach lowers to a grant on the daemon's single
            # mapping (EW-conscious case 2): shared, not remapped.
            result = bob.attach("market-data", access="r")
            print(f"bob attach(r) -> {result['outcome']} "
                  "(grant on the existing window)")
            print(f"bob reads: {bob.read(oid, 12).decode()}")
            try:
                bob.write(oid, b"hijack")
            except RemoteError as exc:
                print(f"bob write -> {exc.kind}: refused "
                      "(mode 644: read-only for others)")

            try:
                mallory.attach("market-data")
            except RemoteError as exc:
                print(f"mallory attach -> {exc.kind}: refused by the "
                      "OS before TERP is consulted")

            bob.detach("market-data")
            alice.detach("market-data")

        # A tenant that never detaches: the sweeper closes its window
        # once the 50ms session budget elapses.
        print("\nsloth attaches and goes to sleep...")
        with SyncTerpClient(port=port, user="sloth") as sloth:
            sloth.attach("market-data", access="r")
            while sloth.forced_detaches == 0:
                time.sleep(0.01)
                sloth.ping()            # events ride on responses
            event = sloth.events[-1]
            print(f"sweeper force-detached '{event['pmo']}' "
                  f"({event['reason']})")

        with SyncTerpClient(port=port, user="root") as probe:
            stats = probe.metrics()["global"]
            print(f"\ndaemon totals: {stats['requests']} requests, "
                  f"{stats['attaches']} attaches, "
                  f"{stats['forced_detaches']} forced detach(es), "
                  f"p99 request latency "
                  f"{stats['request_latency']['p99_us']:.1f}us")


if __name__ == "__main__":
    main()
