"""The six WHISPER benchmarks (Section VI: Echo, Redis, YCSB, TPCC,
ctree, hashmap).

Each benchmark is a :class:`~repro.workloads.spec.base.Benchmark` row
whose window and exposure shape is calibrated from the benchmark's
natural behaviour (Table III), with one PMO always active and a *real*
operation mix over the persistent structures in
:mod:`repro.workloads.structures` as its ``setup`` — the access counts
inside each burst are measured, not assumed.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict

import numpy as np

from repro.core.units import GIB
from repro.workloads.spec.base import Benchmark
from repro.workloads.structures.ctree import CritBitTree
from repro.workloads.structures.hashmap import PersistentHashMap
from repro.workloads.structures.kvstore import VersionedKvStore
from repro.workloads.structures.tpcc import TpccDatabase

_KEYSPACE = 2_000


def _key(rng: np.random.Generator) -> bytes:
    return b"key-%08d" % int(rng.integers(0, _KEYSPACE))


def _value(rng: np.random.Generator, size: int = 64) -> bytes:
    return bytes(rng.integers(65, 91, size=size, dtype=np.uint8))


# -- operation mixes over the real structures ---------------------------------

def _echo_setup(pmo, rng) -> Callable:
    """Echo: versioned KV store; puts accumulate versions, periodic GC."""
    store = VersionedKvStore.create(pmo, nbuckets=256)
    for i in range(200):
        store.put(b"key-%08d" % i, _value(rng))

    def op(rng: np.random.Generator) -> None:
        key = _key(rng)
        roll = rng.random()
        if roll < 0.6:
            store.put(key, _value(rng))
            if rng.random() < 0.1:
                store.gc(key, keep=4)
        else:
            store.get(key)
    return op


def _redis_setup(pmo, rng) -> Callable:
    """Redis: single-version KV (GC after every update), small values."""
    store = VersionedKvStore.create(pmo, nbuckets=256)
    for i in range(200):
        store.put(b"key-%08d" % i, _value(rng, 32))

    def op(rng: np.random.Generator) -> None:
        key = _key(rng)
        if rng.random() < 0.5:
            store.put(key, _value(rng, 32))
            store.gc(key, keep=1)
        else:
            store.get(key)
    return op


def _ycsb_setup(pmo, rng) -> Callable:
    """YCSB workload A: 50% reads, 50% updates over a hash map."""
    table = PersistentHashMap.create(pmo, nbuckets=512)
    for i in range(400):
        table.put(b"user%08d" % i, _value(rng, 100))

    def op(rng: np.random.Generator) -> None:
        key = b"user%08d" % int(rng.zipf(1.5) % 400)
        if rng.random() < 0.5:
            table.get(key)
        else:
            table.put(key, _value(rng, 100))
    return op


def _tpcc_setup(pmo, rng) -> Callable:
    """TPCC: NEW-ORDER / PAYMENT mix on the transactional tables."""
    db = TpccDatabase.create(pmo)

    def op(rng: np.random.Generator) -> None:
        w = int(rng.integers(0, db.config.warehouses))
        d = int(rng.integers(0, db.config.districts_per_warehouse))
        c = int(rng.integers(0, db.config.customers_per_district))
        if rng.random() < 0.55 and db.order_count < db.config.max_orders:
            db.new_order(w, d, c, int(rng.integers(1, 10)),
                         int(rng.integers(100, 5000)))
        else:
            balance = db.customer_balance(w, d, c)
            if balance > 0:
                from repro.core.errors import PmoError
                try:
                    db.payment(w, d, c, max(1, balance // 2))
                except PmoError:
                    pass
    return op


def _ctree_setup(pmo, rng) -> Callable:
    """ctree: insert/lookup/delete over the crit-bit tree."""
    tree = CritBitTree.create(pmo)
    for i in range(300):
        tree.insert(b"key-%08d" % i, _value(rng, 48))

    def op(rng: np.random.Generator) -> None:
        key = _key(rng)
        roll = rng.random()
        if roll < 0.45:
            tree.insert(key, _value(rng, 48))
        elif roll < 0.85:
            tree.get(key)
        else:
            tree.delete(key)
    return op


def _hashmap_setup(pmo, rng) -> Callable:
    """hashmap: insert/delete-heavy churn over the chained map."""
    table = PersistentHashMap.create(pmo, nbuckets=512)
    for i in range(300):
        table.put(b"key-%08d" % i, _value(rng, 64))

    def op(rng: np.random.Generator) -> None:
        key = _key(rng)
        roll = rng.random()
        if roll < 0.5:
            table.put(key, _value(rng, 64))
        elif roll < 0.8:
            table.get(key)
        else:
            table.delete(key)
    return op


# -- rows calibrated from the benchmarks' natural behaviour (Table III) -------

#: One 1GB PMO and 100K transactions, per the paper's methodology.
_whisper = partial(Benchmark, pmo_size=GIB, ops=100_000)

#: In the paper's order.
WHISPER: Dict[str, Benchmark] = {
    "echo": _whisper("echo", window_avg_us=17.3, window_max_us=33.5,
                     exposure_rate=0.141, region_us=1.5,
                     setup=_echo_setup),
    "ycsb": _whisper("ycsb", window_avg_us=13.1, window_max_us=38.1,
                     exposure_rate=0.281, region_us=0.9,
                     setup=_ycsb_setup),
    "tpcc": _whisper("tpcc", window_avg_us=11.2, window_max_us=32.5,
                     exposure_rate=0.311, region_us=0.7,
                     setup=_tpcc_setup),
    "ctree": _whisper("ctree", window_avg_us=16.3, window_max_us=39.4,
                      exposure_rate=0.222, region_us=1.8,
                      setup=_ctree_setup),
    "hashmap": _whisper("hashmap", window_avg_us=19.7,
                        window_max_us=37.2, exposure_rate=0.192,
                        region_us=0.9, setup=_hashmap_setup),
    "redis": _whisper("redis", window_avg_us=8.1, window_max_us=25.1,
                      exposure_rate=0.325, region_us=1.1,
                      setup=_redis_setup),
}
