"""What one scrub pass costs the durable store, by PMO size.

One ``PmoStore.scrub(8)`` — the terpd sweeper's per-sweep pass — over
a fully written PMO of 1, 4, 16 and 64 MiB (µs, median of the passes),
every size in one fresh interpreter against one source tree, the home
file in page cache.  With ``--against OTHER_SRC`` the two trees take
turns, run by run, and the medians and their ratio are printed.

``--contention`` instead runs a scrub pass every 5 ms (``file_psync``'s
sweep period) beside a writer that psyncs eight 4 KiB pages of a 4 MiB
PMO at a time, fsync on, for ``--seconds``, and counts the passes that
found the store's I/O lock held by the group-commit thread (its
journal or home write and fsync), with how long they waited.

Run::

    python benchmarks/store_scrub.py                      # src/, once
    python benchmarks/store_scrub.py --runs 10 \\
        --against /path/to/other/checkout/src
    python benchmarks/store_scrub.py --contention --seconds 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIZES_MIB = (1, 4, 16, 64)

PROBE = r"""
import json, sys, tempfile, time
from repro.pmo.pmo import Pmo
from repro.pmo.store import (DurablePages, PmoStore, pack_header,
                             page_crcs, write_header, write_home)

PAGE, PASSES = 4096, int(sys.argv[2])
page = bytes(range(256)) * (PAGE // 256)
out = {}
for mib in json.loads(sys.argv[1]):
    with tempfile.TemporaryDirectory() as root:
        store = PmoStore(root, fsync=False)
        size = mib << 20
        pmo = Pmo(1, "scrubbed", size, storage=DurablePages(size))
        path = store.path_for("scrubbed")
        write_header(path, pack_header(pmo), fsync=False)
        for first in range(0, size // PAGE, 1024):
            batch = [(i, page) for i in range(first, first + 1024)]
            write_home(path, batch, page_crcs(batch), fsync=False)
        store.register(pmo)
        store.scrub(8)                              # warm
        times = []
        for _ in range(PASSES):
            start = time.perf_counter_ns()
            result = store.scrub(8)
            times.append((time.perf_counter_ns() - start) / 1e3)
            assert result["verified"] == 8, result
        out[f"{mib}MiB_us"] = sorted(times)[PASSES // 2]
print(json.dumps(out))
"""

CONTENTION = r"""
import json, random, sys, tempfile, threading, time
from repro.pmo.api import PmoLibrary
from repro.pmo.store import PmoStore

class CountingLock:
    # The store's I/O lock, noting each acquisition by the scrubbing
    # thread that found the lock held by the group-commit thread.
    def __init__(self, lock):
        self.lock, self.holder, self.waits_ns = lock, None, []

    def __enter__(self):
        if not self.lock.acquire(False):
            held_by = self.holder
            start = time.perf_counter_ns()
            self.lock.acquire()
            if threading.current_thread() is threading.main_thread() \
                    and held_by == "terp-group-commit":
                self.waits_ns.append(time.perf_counter_ns() - start)
        self.holder = threading.current_thread().name

    def __exit__(self, *exc):
        self.holder = None
        self.lock.release()

seconds = float(sys.argv[1])
with tempfile.TemporaryDirectory() as root:
    store = PmoStore(root)
    lock = store._io_lock = CountingLock(store._io_lock)
    lib = PmoLibrary(store=store)
    pmo = lib.PMO_create("tenant", 4 << 20)
    stop = threading.Event()
    with lib.thread(1):
        lib.attach(pmo)
        oid = lib.pmalloc(pmo, 2 << 20)
        lib.write(oid, bytes(2 << 20))          # every region page home
        lib.psync(pmo)
    def writer():
        rng = random.Random(1)
        with lib.thread(1):
            while not stop.is_set():
                for page in rng.sample(range(512), 8):
                    lib.write(oid.add(page * 4096), rng.randbytes(4096))
                lib.psync(pmo)
    thread = threading.Thread(target=writer)
    thread.start()
    passes = waited = 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        before = len(lock.waits_ns)
        store.scrub(8)
        passes += 1
        waited += len(lock.waits_ns) > before
        time.sleep(0.005)
    stop.set()
    thread.join()
    store.close()
waits = sorted(lock.waits_ns)
print(json.dumps({
    "passes": passes, "passes_waited": waited,
    "wait_p50_us": waits[len(waits) // 2] / 1e3 if waits else 0.0,
    "wait_max_us": waits[-1] / 1e3 if waits else 0.0}))
"""


def run_once(src: str, *argv: str, probe: str = PROBE) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> None:
    here = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=here,
                        help="source tree to measure (default: src/)")
    parser.add_argument("--against", help="a second tree, run in turn")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--passes", type=int, default=21,
                        help="timed scrub passes per size and run")
    parser.add_argument("--contention", action="store_true",
                        help="count passes that waited behind a commit")
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    trees = {"this": args.src}
    if args.against:
        trees["other"] = args.against
    runs = {name: [] for name in trees}
    for run in range(args.runs):
        # Alternate which tree goes first, so neither always runs on a
        # machine the other just warmed or loaded.
        order = list(trees) if run % 2 == 0 else list(trees)[::-1]
        for name in order:
            if args.contention:
                runs[name].append(run_once(trees[name], str(args.seconds),
                                           probe=CONTENTION))
            else:
                runs[name].append(run_once(trees[name],
                                           json.dumps(SIZES_MIB),
                                           str(args.passes)))
    keys = list(runs["this"][0])
    report = {name: {key: round(statistics.median(r[key] for r in rs), 1)
                     for key in keys} for name, rs in runs.items()}
    if args.against and not args.contention:
        report["this/other"] = {
            key: round(report["this"][key] / report["other"][key], 3)
            for key in keys}
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
