"""The six workloads: what they are, why, and the tenants that drive them.

One client process, two closed-loop connections (threads): each issues
its next request when the previous reply arrives.  ``--seed`` drives
payload bytes, the page-visit order, the holder's re-attach jitter and
the PMO-name search; the daemons keep their default seed.  Every PMO is
4 MiB (mixed sizes wedge the daemon — see the README's known defects).
"""

from __future__ import annotations

import random
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.ring import HashRing
from repro.core.errors import TerpError
from repro.pmo.object_id import Oid
from repro.service.client import SyncTerpClient

PMO_BYTES = 4 << 20
PAGE = 4096
REGION_PAGES = 256
BURST = 8
SMALL = 64
HOLDER_PMOS = 12
HOLDER_BUDGET_US = 25_000
HOLDER_PING_S = 0.002
HOLDER_JITTER_S = 0.005
#: Seeded think time after every cycle.  Without it two closed loops
#: phase-lock for a whole run — one tenant's psync always lands behind
#: the other's write burst, or never does — and ``psync_p50_us`` on the
#: memory backend reads 300 µs or 490 µs run by run.
THINK_S = 0.0003

_STAMP = struct.Struct("<Q")
_now = time.perf_counter_ns


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str             # memory | file | replicated | cluster
    variant: str              # small (64 B, own PMO) | page (4 KiB)
    roles: Tuple[str, str]    # connection A, connection B
    #: page variant: both connections work on disjoint regions of one
    #: PMO (their psync snapshots merge in group commit) or on a PMO each.
    shared_pmo: bool
    #: the topology with this workload's extra layer taken out: the same
    #: traffic is run on it briefly for the derived tax metrics.
    base_topology: Optional[str]
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mem_cycle", "memory", "small", ("cycle", "cycle"), False,
             None,
             "protocol + server dispatch + runtime do all the work; "
             "bypass for every store/replication/router/sweeper change"),
    Workload("file_psync", "file", "page", ("cycle", "cycle"), True, None,
             "pmo.store snapshot/CRC/journal+home fsync/group-commit "
             "dominate; where a store optimisation must show"),
    Workload("file_mixed", "file", "page", ("reader", "cycle"), True,
             None,
             "reads beside commits under one lib.lock; a commit-path "
             "gain that holds the lock longer shows as read latency"),
    # A PMO per connection: two snapshots of one PMO in flight at once
    # lose an acked write on the standby (README, known defects), and
    # a workload must be one on which nothing fails.
    Workload("repl_psync", "replicated", "page", ("cycle", "cycle"),
             False, "file",
             "shipper/applier/wire sit on the psync critical path; "
             "against the same traffic unreplicated it yields the "
             "replication tax"),
    Workload("cluster_cycle", "cluster", "small", ("cycle", "cycle"),
             False, "memory",
             "router relay + ring on every op with mem_cycle's "
             "traffic, so the difference is the router hop"),
    Workload("sweep_hold", "memory", "small", ("holder", "cycle"), False,
             None,
             "a 25 ms holder makes the sweeper force-detach every "
             "period: how late enforcement is, and what it costs a "
             "bystander"),
)}


def pick_names(rng: random.Random, prefix: str = "t") -> List[str]:
    """Two seeded PMO names that a 2-shard ring places on different
    shards — used on every topology so ``mem_cycle`` and
    ``cluster_cycle`` see identical traffic."""
    ring = HashRing(range(2), seed=2022)
    names: List[str] = []
    while len(names) < 2:
        name = f"{prefix}{len(names)}-{rng.randrange(1 << 24):06x}"
        if ring.owner(name) == len(names):
            names.append(name)
    return names


def tenant_rng(seed: int, index: int) -> random.Random:
    """Connection ``index``'s stream: payload bytes, page-visit order,
    holder jitter."""
    return random.Random(f"terpbench/{seed}/{index}")


def page_aligned(oid: Oid) -> Oid:
    """Round an allocation up to the next 4 KiB page of its PMO, so a
    4 KiB write dirties exactly one page."""
    return oid.add(-oid.offset % PAGE)


def _blobs(rng: random.Random, count: int, size: int) -> List[bytes]:
    return [rng.randbytes(size) for _ in range(count)]


class Gate:
    """Lets the runner park every tenant between two cycles, so that a
    slice boundary (snapshot, wire counters) finds the program idle and
    no cycle straddles two slices."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._closed = False
        self._parked = 0

    def pass_through(self) -> None:
        """Tenant side, before every cycle: returns at once while the
        gate is open, parks while it is closed."""
        if not self._closed:
            return
        with self._cond:
            self._parked += 1
            self._cond.notify_all()
            while self._closed:
                self._cond.wait()
            self._parked -= 1

    def close(self, tenants: int, timeout: float = 5.0) -> None:
        """Returns once ``tenants`` of them are parked."""
        with self._cond:
            self._closed = True
            self._cond.wait_for(lambda: self._parked >= tenants, timeout)

    def open(self) -> None:
        with self._cond:
            self._closed = False
            self._cond.notify_all()


class Tenant(threading.Thread):
    """One closed-loop connection.  ``samples`` rows are
    ``(end_ns, ops, cycle_ns, *op_ns)`` with ``op_ns`` in ``OPS`` order."""

    role = ""
    OPS: Tuple[str, ...] = ()
    budget_us: Optional[float] = None

    def __init__(self, index: int, port: int, rng: random.Random,
                 variant: str) -> None:
        super().__init__(name=f"terpbench-t{index}", daemon=True)
        self.index = index
        self.port = port
        self.rng = rng
        self.variant = variant
        self.user = f"t{index}"
        self.client: Optional[SyncTerpClient] = None
        self.samples: List[Tuple[int, ...]] = []
        self.failed_ops = 0
        self.mismatches = 0
        self.errors: List[str] = []
        self.reconnects = 0
        #: set by the runner at slice boundaries; ``None`` = untraced.
        self.recorder: Any = None
        #: shared by the session's tenants; the runner closes it at
        #: slice boundaries.
        self.gate = Gate()
        self._stop_flag = threading.Event()

    def connect(self) -> None:
        self.client = SyncTerpClient(
            port=self.port, user=self.user,
            ew_budget_us=self.budget_us).connect()

    def request_stop(self) -> None:
        self._stop_flag.set()

    def run(self) -> None:
        while not self._stop_flag.is_set():
            self.gate.pass_through()
            try:
                self.cycle()
            except (TerpError, OSError) as exc:
                # A pipeline that hit an error reply leaves the
                # connection desynced, so always start over on a fresh
                # one; the whole cycle counts as failed.
                self.failed_ops += self.cycle_ops
                self._note(f"{self.name}: {exc}")
                self._reconnect()
        if self.client is not None:
            self.client.close()

    def _reconnect(self) -> None:
        self.reconnects += 1
        if self.client is not None:
            self.client.close()
        time.sleep(0.05)
        try:
            self.connect()
        except (TerpError, OSError) as exc:
            self._note(f"{self.name} reconnect: {exc}")

    def _note(self, error: str) -> None:
        if len(self.errors) < 5:      # the first few tell the story
            self.errors.append(error)

    def record(self, begin: int, marks: List[int], ops: int) -> None:
        """One finished cycle: ``marks`` are the timestamps around its
        calls (``len(OPS) + 1`` of them), ``begin`` when the tenant
        started preparing it — the root span's self time is that
        client-side preparation."""
        self.samples.append(
            (marks[-1], ops, marks[-1] - marks[0],
             *(b - a for a, b in zip(marks, marks[1:]))))
        recorder = self.recorder
        if recorder is not None:
            recorder.cycle(f"tenant.{self.role}", begin, self.OPS, marks)

    cycle_ops = 0

    def setup(self, names: List[str],
              regions: List[Tuple[str, Oid]]) -> None:
        """Create or adopt this connection's PMOs (untimed by any
        latency, inside ``setup_s``)."""
        raise NotImplementedError

    def cycle(self) -> None:
        raise NotImplementedError


class CycleTenant(Tenant):
    """attach → pipeline of 8 writes → psync → read → detach."""

    role = "cycle"
    OPS = ("attach", "write_burst", "psync", "read", "detach")
    cycle_ops = BURST + 4

    def __init__(self, index: int, port: int, rng: random.Random,
                 variant: str) -> None:
        super().__init__(index, port, rng, variant)
        self.size = PAGE if variant == "page" else SMALL
        self.blobs = _blobs(rng, 64, self.size)
        self.pmo = ""
        self.base = Oid.NULL
        self.counter = 0
        #: page (0 for the small variant) -> the highest cycle counter
        #: whose psync was acked: what durability checks must find.
        self.acked: Dict[int, int] = {}

    def setup(self, names: List[str],
              regions: List[Tuple[str, Oid]]) -> None:
        if self.variant == "page":
            self.pmo, self.base = regions[self.index]
        else:
            self.pmo = names[self.index]
            self.client.create(self.pmo, PMO_BYTES)
            self.base = self.client.pmalloc(self.pmo, SMALL)

    def cycle(self) -> None:
        begin = _now()
        client, pmo = self.client, self.pmo
        self.counter += 1
        stamp = _STAMP.pack(self.counter)
        pages = self.rng.sample(range(REGION_PAGES), BURST) \
            if self.variant == "page" else [0] * BURST
        first = self.counter * BURST
        payloads = [stamp + self.blobs[(first + i) % 64][8:]
                    for i in range(BURST)]
        oids = [self.base.add(page * PAGE).pack() for page in pages]
        writes = [("write", {"oid": oid, "data": data})
                  for oid, data in zip(oids, payloads)]
        t0 = _now()
        client.attach(pmo)
        t1 = _now()
        client.pipeline(writes)
        t2 = _now()
        client.psync(pmo)
        t3 = _now()
        got = client.call("read", oid=oids[-1], n=self.size)["data"]
        t4 = _now()
        client.detach(pmo)
        t5 = _now()
        for page in pages:
            self.acked[page] = self.counter
        if got != payloads[-1]:
            self.mismatches += 1
        self.record(begin, [t0, t1, t2, t3, t4, t5], self.cycle_ops)
        time.sleep(self.rng.uniform(0.0, THINK_S))


class ReaderTenant(Tenant):
    """attach(r) → pipeline of 8 × 4 KiB reads → detach, over a region
    populated at set-up and never written again."""

    role = "reader"
    OPS = ("attach", "read_burst", "detach")
    cycle_ops = BURST + 2

    def __init__(self, index: int, port: int, rng: random.Random,
                 variant: str) -> None:
        super().__init__(index, port, rng, variant)
        self.pmo = ""
        self.base = Oid.NULL
        self.expected: List[bytes] = []

    def setup(self, names: List[str],
              regions: List[Tuple[str, Oid]]) -> None:
        self.pmo, self.base = regions[self.index]

    def cycle(self) -> None:
        begin = _now()
        client = self.client
        pages = self.rng.sample(range(REGION_PAGES), BURST)
        reads = [("read", {"oid": self.base.add(p * PAGE).pack(),
                           "n": PAGE}) for p in pages]
        t0 = _now()
        client.attach(self.pmo, access="r")
        t1 = _now()
        got = client.pipeline(reads)
        t2 = _now()
        client.detach(self.pmo)
        t3 = _now()
        for page, result in zip(pages, got):
            if result["data"] != self.expected[page]:
                self.mismatches += 1
        self.record(begin, [t0, t1, t2, t3], self.cycle_ops)
        time.sleep(self.rng.uniform(0.0, THINK_S))


class HolderTenant(Tenant):
    """Attaches 12 PMOs on a 25 ms budget and never detaches: every
    window is closed by the sweeper.  Pings (events ride on responses)
    until all 12 forced detaches arrived, then goes again."""

    role = "holder"
    OPS = ("attach_burst", "held")
    budget_us = HOLDER_BUDGET_US
    cycle_ops = HOLDER_PMOS

    def __init__(self, index: int, port: int, rng: random.Random,
                 variant: str) -> None:
        super().__init__(index, port, rng, variant)
        self.user = "holder"
        self.names = [f"hold{i:02d}" for i in range(HOLDER_PMOS)]

    def setup(self, names: List[str],
              regions: List[Tuple[str, Oid]]) -> None:
        for name in self.names:
            self.client.create(name, PMO_BYTES)

    def cycle(self) -> None:
        client = self.client
        t0 = _now()
        client.pipeline([("attach", {"name": n}) for n in self.names])
        t1 = _now()
        client.events.clear()
        pings = forced = 0
        while forced < HOLDER_PMOS:
            if _now() - t1 > 2_000_000_000:
                raise TerpError(f"only {forced} of {HOLDER_PMOS} forced "
                                "detaches arrived within 2 s")
            time.sleep(HOLDER_PING_S)
            client.ping()
            pings += 1
            forced += sum(1 for e in client.events
                          if e.get("event") == "forced-detach")
            client.events.clear()
        t2 = _now()
        self.record(t0, [t0, t1, t2], HOLDER_PMOS + pings)
        time.sleep(self.rng.uniform(0.0, HOLDER_JITTER_S))


TENANTS = {cls.role: cls for cls in (CycleTenant, ReaderTenant,
                                     HolderTenant)}


def populate(admin: SyncTerpClient, rng: random.Random,
             tenants: List[Tenant], shared: bool
             ) -> List[Tuple[str, Oid]]:
    """Give each connection a page-aligned 256-page region — of one
    shared PMO or of a PMO each — with every page written and psynced
    (so the pool files are fully allocated before timing).  Returns
    ``(pmo name, region base)`` per connection and hands readers their
    expected bytes."""
    regions: List[Tuple[str, Oid]] = []
    for tenant in tenants:
        pmo = "bench" if shared else f"bench{tenant.index}"
        if not shared or not regions:
            admin.create(pmo, PMO_BYTES, mode=0o666)
        admin.attach(pmo)
        base = page_aligned(
            admin.pmalloc(pmo, (REGION_PAGES + 1) * PAGE))
        regions.append((pmo, base))
        pages = [_STAMP.pack(0) + blob[8:]
                 for blob in _blobs(rng, REGION_PAGES, PAGE)]
        if isinstance(tenant, ReaderTenant):
            tenant.expected = pages
        for start in range(0, REGION_PAGES, 32):
            admin.pipeline([
                ("write", {"oid": base.add(p * PAGE).pack(),
                           "data": pages[p]})
                for p in range(start, start + 32)])
        admin.psync(pmo)
        admin.detach(pmo)
    return regions
