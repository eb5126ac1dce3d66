"""In-process probes: each layer's public functions, timed alone.

A probe is a single-threaded, **fixed op count** loop over one layer's
public functions with the workload's seeded inputs.  Counts
(``bytes_per_cycle``, ``fsyncs_per_flush``, ``disk_bytes_per_user_byte``)
repeat exactly for a seed; times are host-noisy and are read against
``host.calib_ms``.  Each loop is one span named ``<layer>.<function>``
under a ``probes`` root, in the same trace file as the tenant cycles.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import tempfile
import time
import zlib
from pathlib import Path
from typing import Dict, List, Tuple

from repro.arch.cond_engine import TerpArchEngine
from repro.cluster.ring import HashRing
from repro.core.permissions import Access
from repro.mem.mpk import NUM_KEYS
from repro.pmo.api import PmoLibrary
from repro.pmo.store import HEADER_SPAN, PmoStore
from repro.replication.applier import JournalApplier, StandbyDaemon
from repro.replication.shipper import JournalShipper
from repro.service import protocol

from .spans import SpanRecorder
from .workloads import (
    BURST, PAGE, PMO_BYTES, REGION_PAGES, SMALL, page_aligned)

Metrics = Dict[str, Tuple[float, str]]
_now = time.perf_counter_ns

PROTOCOL_CYCLES = 300
API_CYCLES = 300
RUNTIME_PAIRS = 2000
SWEEP_WINDOWS = 12
SWEEPS = 200
FLUSHES = 24
LOADS = 3
SHIPS = 24
RING_LOOKUPS = 20000


def _arch_library() -> PmoLibrary:
    """A library on the engine terpd itself builds (40 µs EW target,
    32-entry buffer, 15 MPK domains, 5 ms sweeps)."""
    engine = TerpArchEngine(40_000, capacity=32,
                            domain_capacity=NUM_KEYS - 1,
                            sweep_period_ns=5_000_000)
    return PmoLibrary(semantics=engine)


def _cycle_frames(rng: random.Random, size: int
                  ) -> List[Tuple[dict, bytes]]:
    """One tenant cycle's request and response frames, as the v2 wire
    carries them: ``(json payload, sidecar)``."""
    data = rng.randbytes(size)
    oid = (1 << 48) | 0x40000
    frames: List[Tuple[dict, bytes]] = [
        (protocol.request(1, "attach", {"name": "bench", "access": "rw"}),
         b""),
        (protocol.ok_response(1, {"outcome": "performed",
                                  "base_va": 0x7f0000000000,
                                  "reason": "case 1: first attach"}), b"")]
    for i in range(BURST):
        frames.append((protocol.request(
            2 + i, "write", {"oid": oid + i * size,
                             "data": {"bin": size}}), data))
        frames.append((protocol.ok_response(2 + i, {"n": size}), b""))
    frames += [
        (protocol.request(10, "psync", {"name": "bench"}), b""),
        (protocol.ok_response(10, {"flushed": BURST}), b""),
        (protocol.request(11, "read", {"oid": oid, "n": size}), b""),
        (protocol.ok_response(11, {"bin": size}), data),
        (protocol.request(12, "detach", {"name": "bench"}), b""),
        (protocol.ok_response(12, {"outcome": "performed",
                                   "reason": "case 5: full detach"}), b"")]
    return frames


def protocol_probe(rng: random.Random, size: int, rec: SpanRecorder,
                   root: int) -> Metrics:
    frames = _cycle_frames(rng, size)
    wire = [protocol.encode_frame(payload, sidecar or None)
            for payload, sidecar in frames]
    bodies = [protocol.encode_body(payload) for payload, _ in frames]
    read_response = frames[-3]
    n = PROTOCOL_CYCLES * len(frames)
    with rec.span("service.protocol.encode_frame", root, root):
        start = _now()
        for _ in range(PROTOCOL_CYCLES):
            for payload, sidecar in frames:
                protocol.encode_frame(payload, sidecar or None)
        encode_ns = (_now() - start) / n
    with rec.span("service.protocol.decode_frame", root, root):
        start = _now()
        for _ in range(PROTOCOL_CYCLES):
            for body in bodies:
                protocol.decode_frame(body)
        decode_ns = (_now() - start) / n
    with rec.span("service.protocol.absorb_sidecar", root, root):
        body = protocol.encode_body(read_response[0])
        start = _now()
        for _ in range(PROTOCOL_CYCLES * BURST):
            protocol.absorb_sidecar(protocol.decode_frame(body),
                                    read_response[1])
        sidecar_ns = (_now() - start) / (PROTOCOL_CYCLES * BURST)
    return {
        "service.protocol.encode_ns_per_frame": (encode_ns, "ns"),
        "service.protocol.decode_ns_per_frame": (decode_ns, "ns"),
        "service.protocol.sidecar_ns_per_kib": (
            sidecar_ns / (size / 1024.0), "ns"),
        "service.protocol.bytes_per_cycle": (
            float(sum(len(frame) for frame in wire)), "B"),
    }


def api_probe(rng: random.Random, size: int, rec: SpanRecorder,
              root: int) -> Metrics:
    """``PmoLibrary`` on memory storage: the tenant cycle with no wire,
    no daemon and no store."""
    lib = _arch_library()
    pmo = lib.PMO_create("probe", PMO_BYTES)
    oid = lib.pmalloc(pmo, size * BURST)
    data = rng.randbytes(size)
    write_ns = read_ns = 0
    with rec.span("pmo.api.cycle", root, root), lib.thread(1):
        start = _now()
        for _ in range(API_CYCLES):
            lib.tick(100_000)
            lib.attach(pmo)
            t0 = _now()
            for i in range(BURST):
                lib.write(oid.add(i * size), data)
            t1 = _now()
            lib.psync(pmo)
            t2 = _now()
            lib.read(oid, size)
            t3 = _now()
            lib.detach(pmo)
            write_ns += t1 - t0
            read_ns += t3 - t2
        cycle_ns = (_now() - start) / API_CYCLES
    return {"pmo.api.cycle_ns": (cycle_ns, "ns"),
            "pmo.api.write_ns": (write_ns / (API_CYCLES * BURST), "ns"),
            "pmo.api.read_ns": (read_ns / API_CYCLES, "ns")}


def runtime_probe(rec: SpanRecorder, root: int) -> Metrics:
    lib = _arch_library()
    runtime = lib.runtime
    pmos = [lib.PMO_create(f"probe{i:02d}", PMO_BYTES)
            for i in range(SWEEP_WINDOWS)]
    now = 1_000_000
    with rec.span("core.runtime.attach_detach", root, root):
        start = _now()
        for _ in range(RUNTIME_PAIRS):
            now += 100_000
            runtime.attach(1, pmos[0], Access.RW, now)
            runtime.detach(1, pmos[0], now + 10_000)
        pair_ns = (_now() - start) / RUNTIME_PAIRS
    # Let the first PMO's delayed window lapse, then hold 12 open.
    now += 10_000_000
    runtime.sweep(now)
    for pmo in pmos:
        runtime.attach(1, pmo, Access.RW, now)
    with rec.span("core.runtime.sweep", root, root):
        start = _now()
        for _ in range(SWEEPS):
            now += 5_000_000
            runtime.sweep(now)
        sweep_ns = (_now() - start) / (SWEEPS * SWEEP_WINDOWS)
    return {"core.runtime.attach_detach_ns": (pair_ns, "ns"),
            "core.runtime.sweep_ns_per_window": (sweep_ns, "ns")}


class _FsyncCounter:
    """Counts ``os.fsync`` calls made by this process while active (the
    wrapper costs nanoseconds against an fsync's milliseconds)."""

    def __init__(self) -> None:
        self.calls = 0
        self._real = os.fsync

    def _fsync(self, fd: int) -> None:
        self.calls += 1
        self._real(fd)

    def __enter__(self) -> "_FsyncCounter":
        os.fsync = self._fsync
        return self

    def __exit__(self, *exc_info) -> None:
        os.fsync = self._real


def _timed_flushes(root_dir: Path, rng: random.Random, *, fsync: bool
                   ) -> Tuple[List[float], int]:
    """``FLUSHES`` psync-sized flushes (8 dirty 4 KiB pages, seeded
    order) against a store whose file is already fully written.
    Returns the flush times in µs and the fsyncs they issued."""
    store = PmoStore(root_dir, fsync=fsync, commit_interval_us=0)
    lib = PmoLibrary(store=store)
    pmo = lib.PMO_create("probe", PMO_BYTES)
    base = page_aligned(lib.pmalloc(pmo, (REGION_PAGES + 1) * PAGE))
    blobs = [rng.randbytes(PAGE) for _ in range(16)]
    times: List[float] = []
    with _FsyncCounter() as counter, lib.thread(1):
        lib.attach(pmo)
        for page in range(REGION_PAGES):
            lib.write(base.add(page * PAGE), blobs[page % 16])
        store.flush(pmo)
        before = counter.calls
        for _ in range(FLUSHES):
            for i, page in enumerate(rng.sample(range(REGION_PAGES),
                                                BURST)):
                lib.write(base.add(page * PAGE), blobs[i])
            start = _now()
            store.flush(pmo)
            times.append((_now() - start) / 1e3)
        fsyncs = counter.calls - before
        lib.detach(pmo)
    store.close()
    return times, fsyncs


def store_probe(rng: random.Random, tmp: Path, rec: SpanRecorder,
                root: int) -> Metrics:
    with rec.span("pmo.store.flush", root, root):
        durable, fsyncs = _timed_flushes(tmp / "fsync", rng, fsync=True)
    with rec.span("pmo.store.flush_nofsync", root, root):
        volatile, _ = _timed_flushes(tmp / "nofsync", rng, fsync=False)
    disk = sum(f.stat().st_size for f in (tmp / "fsync").iterdir()
               if f.is_file())
    loads = []
    with rec.span("pmo.store.load_all", root, root):
        for _ in range(LOADS):
            fresh = PmoStore(tmp / "fsync")
            start = _now()
            fresh.load_all()
            loads.append((_now() - start) / 1e6)
            fresh.close()
    flush_us = statistics.median(durable)
    nofsync_us = statistics.median(volatile)
    return {
        "pmo.store.flush_us": (flush_us, "us"),
        "pmo.store.flush_nofsync_us": (nofsync_us, "us"),
        "pmo.store.fsync_share": (1.0 - nofsync_us / flush_us, "ratio"),
        "pmo.store.fsyncs_per_flush": (fsyncs / FLUSHES, "count"),
        "pmo.store.disk_bytes_per_user_byte": (
            disk / float(REGION_PAGES * PAGE), "ratio"),
        "pmo.store.load_all_ms": (statistics.median(loads), "ms"),
    }


def replication_probe(rng: random.Random, tmp: Path, rec: SpanRecorder,
                      root: int) -> Metrics:
    """``ship_commit`` to an in-process standby (send → apply+fsync →
    ack), and the standby's ``apply_batch`` on its own."""
    store = PmoStore(tmp / "primary", commit_interval_us=0)
    lib = PmoLibrary(store=store)
    pmo = lib.PMO_create("probe", PMO_BYTES)
    header = store.path_for("probe").read_bytes()[:HEADER_SPAN]
    batches = []
    for _ in range(SHIPS):
        pages = sorted(rng.sample(range(REGION_PAGES), BURST))
        batches.append([(page, rng.randbytes(PAGE)) for page in pages])
    standby = StandbyDaemon(tmp / "standby")
    shipper = JournalShipper("127.0.0.1", standby.start(), store=store)
    ship_us: List[float] = []
    try:
        if not shipper.start():
            raise RuntimeError("probe shipper could not reach its standby")
        with rec.span("replication.shipper.ship_commit", root, root):
            for seq, pages in enumerate(batches, start=1):
                start = _now()
                shipper.ship_commit("probe", pmo.pmo_id, seq, pages)
                ship_us.append((_now() - start) / 1e3)
        if shipper.dropped or shipper.acked < SHIPS:
            raise RuntimeError(f"probe standby acked {shipper.acked} of "
                               f"{SHIPS} batches")
    finally:
        shipper.stop()
        standby.stop()
        store.close()
    applier = JournalApplier(tmp / "applier")
    applier.apply_header("probe", header)
    apply_us: List[float] = []
    with rec.span("replication.applier.apply_batch", root, root):
        for seq, pages in enumerate(batches, start=1):
            meta = [[index, zlib.crc32(page) & 0xFFFFFFFF]
                    for index, page in pages]
            payload = b"".join(page for _, page in pages)
            start = _now()
            applier.apply_batch("probe", seq, seq - 1, meta, payload)
            apply_us.append((_now() - start) / 1e3)
    applier.close()
    return {"replication.ship_ack_us": (statistics.median(ship_us), "us"),
            "replication.apply_batch_us": (statistics.median(apply_us),
                                           "us")}


def ring_probe(rng: random.Random, rec: SpanRecorder, root: int) -> Metrics:
    ring = HashRing(range(2), seed=2022)
    keys = [f"t-{rng.randrange(1 << 24):06x}" for _ in range(256)]
    with rec.span("cluster.ring.owner", root, root):
        start = _now()
        for i in range(RING_LOOKUPS):
            ring.owner(keys[i & 255])
        owner_ns = (_now() - start) / RING_LOOKUPS
    return {"cluster.ring.owner_ns": (owner_ns, "ns")}


def run_all(variant: str, seed: int, rec: SpanRecorder,
            tmp_root: Path) -> Metrics:
    """Every probe, with the workload's variant (64 B or 4 KiB) and
    seed; scratch files live and die under ``tmp_root``."""
    size = PAGE if variant == "page" else SMALL
    rng = random.Random(f"terpbench/{seed}/probes")
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="probe-", dir=tmp_root))
    out: Metrics = {}
    try:
        with rec.span("probes") as root:
            out.update(protocol_probe(rng, size, rec, root))
            out.update(api_probe(rng, size, rec, root))
            out.update(runtime_probe(rec, root))
            out.update(store_probe(rng, tmp, rec, root))
            out.update(replication_probe(rng, tmp, rec, root))
            out.update(ring_probe(rng, rec, root))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    return out
