"""Executable SPEC-style kernels over PMO-backed data.

The trace generators in :mod:`repro.workloads.spec.base` model the
benchmarks' *timing shape*; these kernels are the computational
substance: five small but genuine implementations of each benchmark's
core loop, with all large state held in PMOs (via
:class:`~repro.pmo.array.PmoArray` and friends), so the "heap objects
larger than 128KB become PMOs" story is executable end to end —
including crash/recovery of mid-computation state.

Each kernel implements the same interface::

    kernel.setup(manager)   # create its PMOs
    kernel.step()           # one outer iteration
    kernel.verify()         # a correctness invariant

* ``McfKernel`` — successive-shortest-path min-cost flow
  (Bellman-Ford) on a random network; PMOs: arcs, node potentials,
  distances, flow.
* ``LbmKernel`` — D2Q9 lattice-Boltzmann streaming/collision step;
  PMOs: src and dst lattices (the paper's two hot PMOs).
* ``ImagickKernel`` — normalized 3x3 convolution over an image plane;
  PMOs: source, destination, (tiny) kernel.
* ``NabKernel`` — Lennard-Jones molecular dynamics with velocity
  Verlet; PMOs: positions, velocities, forces.
* ``XzKernel`` — LZ77 greedy compressor with a hash-chain match
  finder; PMOs: input, hash heads, chains, output tokens (plus
  staging buffers) — six PMOs, used in stages, like 657.xz.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import PmoError
from repro.core.record import record
from repro.core.units import MIB
from repro.pmo.array import PmoArray
from repro.pmo.pool import PmoManager


class SpecKernel:
    """Common kernel interface."""

    name = "abstract"

    def setup(self, manager: PmoManager) -> None:
        raise NotImplementedError

    def step(self) -> float:
        """One outer iteration; returns a progress metric."""
        raise NotImplementedError

    def verify(self) -> bool:
        raise NotImplementedError

    def pmo_names(self) -> List[str]:
        raise NotImplementedError


class McfKernel(SpecKernel):
    """Min-cost flow by successive shortest paths (429/505.mcf's job).

    A random directed network with capacities and costs; each step
    finds a cheapest augmenting path from source to sink with
    Bellman-Ford over the residual network and pushes flow along it.
    """

    name = "mcf"

    def __init__(self, n_nodes: int = 64, n_arcs: int = 256,
                 seed: int = 3) -> None:
        self.n_nodes = n_nodes
        self.n_arcs = n_arcs
        self.rng = np.random.default_rng(seed)
        self.total_flow = 0.0
        self.total_cost = 0.0

    def setup(self, manager: PmoManager) -> None:
        self._pmo_arcs = manager.create("mcf-arcs", 4 * MIB)
        self._pmo_nodes = manager.create("mcf-nodes", 4 * MIB)
        self._pmo_dist = manager.create("mcf-dist", 4 * MIB)
        self._pmo_flow = manager.create("mcf-flow", 4 * MIB)
        # arcs: (src, dst, capacity, cost) rows
        self.arcs = PmoArray.create(self._pmo_arcs, (self.n_arcs, 4),
                                    dtype=np.float64)
        self.potential = PmoArray.create(self._pmo_nodes,
                                         (self.n_nodes,))
        self.dist = PmoArray.create(self._pmo_dist, (self.n_nodes,))
        self.flow = PmoArray.create(self._pmo_flow, (self.n_arcs,))
        rows = np.zeros((self.n_arcs, 4))
        # A connected backbone plus random arcs.
        for i in range(self.n_arcs):
            if i < self.n_nodes - 1:
                src, dst = i, i + 1
            else:
                src = int(self.rng.integers(0, self.n_nodes - 1))
                dst = int(self.rng.integers(src + 1, self.n_nodes))
            rows[i] = (src, dst, float(self.rng.integers(1, 10)),
                       float(self.rng.integers(1, 20)))
        self.arcs.store_all(rows)

    def pmo_names(self) -> List[str]:
        return ["mcf-arcs", "mcf-nodes", "mcf-dist", "mcf-flow"]

    def step(self) -> float:
        """One augmentation; returns the flow pushed (0 when done)."""
        arcs = self.arcs.load_all()
        flow = self.flow.load()
        inf = np.inf
        dist = np.full(self.n_nodes, inf)
        parent_arc = np.full(self.n_nodes, -1, dtype=int)
        parent_dir = np.zeros(self.n_nodes, dtype=int)
        dist[0] = 0.0
        for _ in range(self.n_nodes - 1):
            changed = False
            for a in range(self.n_arcs):
                src, dst, cap, cost = arcs[a]
                src, dst = int(src), int(dst)
                residual = cap - flow[a]
                if residual > 1e-9 and dist[src] + cost < dist[dst] - 1e-12:
                    dist[dst] = dist[src] + cost
                    parent_arc[dst] = a
                    parent_dir[dst] = +1
                    changed = True
                if flow[a] > 1e-9 and dist[dst] - cost < dist[src] - 1e-12:
                    dist[src] = dist[dst] - cost
                    parent_arc[src] = a
                    parent_dir[src] = -1
                    changed = True
            if not changed:
                break
        sink = self.n_nodes - 1
        self.dist.store(np.where(np.isfinite(dist), dist, 1e18))
        if not np.isfinite(dist[sink]):
            return 0.0
        # Trace the path and find the bottleneck.
        path: List[Tuple[int, int]] = []
        node = sink
        bottleneck = inf
        while node != 0:
            a = parent_arc[node]
            direction = parent_dir[node]
            src, dst, cap, _ = arcs[a]
            if direction > 0:
                bottleneck = min(bottleneck, cap - flow[a])
                node = int(src)
            else:
                bottleneck = min(bottleneck, flow[a])
                node = int(dst)
            path.append((a, direction))
        for a, direction in path:
            flow[a] += direction * bottleneck
        self.flow.store(flow)
        self.potential.store(np.where(np.isfinite(dist), dist, 0.0))
        self.total_flow += bottleneck
        self.total_cost += bottleneck * dist[sink]
        return float(bottleneck)

    def verify(self) -> bool:
        """Capacity constraints and flow conservation at inner nodes."""
        arcs = self.arcs.load_all()
        flow = self.flow.load()
        if np.any(flow < -1e-9) or \
                np.any(flow > arcs[:, 2] + 1e-9):
            return False
        balance = np.zeros(self.n_nodes)
        for a in range(self.n_arcs):
            src, dst = int(arcs[a, 0]), int(arcs[a, 1])
            balance[src] -= flow[a]
            balance[dst] += flow[a]
        inner = balance[1:-1]
        return bool(np.allclose(inner, 0.0, atol=1e-6))


class LbmKernel(SpecKernel):
    """D2Q9 lattice-Boltzmann (519.lbm's core): stream + collide.

    Two full lattices alternate roles each step — the benchmark's two
    永hot PMOs.  Verification: total mass is conserved.
    """

    name = "lbm"

    #: D2Q9 velocity set and weights.
    VELOCITIES = np.array([(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1),
                           (1, 1), (-1, 1), (-1, -1), (1, -1)])
    WEIGHTS = np.array([4 / 9] + [1 / 9] * 4 + [1 / 36] * 4)
    OMEGA = 1.2

    def __init__(self, width: int = 24, height: int = 16,
                 seed: int = 4) -> None:
        self.width = width
        self.height = height
        self.rng = np.random.default_rng(seed)
        self._step_parity = 0

    def setup(self, manager: PmoManager) -> None:
        self._pmo_a = manager.create("lbm-lattice-a", 8 * MIB)
        self._pmo_b = manager.create("lbm-lattice-b", 8 * MIB)
        shape = (self.height * self.width, 9)
        self.lattice_a = PmoArray.create(self._pmo_a, shape)
        self.lattice_b = PmoArray.create(self._pmo_b, shape)
        rho = 1.0 + 0.05 * self.rng.random((self.height, self.width))
        init = (self.WEIGHTS[None, None, :]
                * rho[:, :, None]).reshape(shape)
        self.lattice_a.store_all(init)
        self.lattice_b.store_all(init)

    def pmo_names(self) -> List[str]:
        return ["lbm-lattice-a", "lbm-lattice-b"]

    def _grids(self) -> Tuple[PmoArray, PmoArray]:
        if self._step_parity % 2 == 0:
            return self.lattice_a, self.lattice_b
        return self.lattice_b, self.lattice_a

    def step(self) -> float:
        src_arr, dst_arr = self._grids()
        f = src_arr.load_all().reshape(self.height, self.width, 9)
        rho = f.sum(axis=2)
        ux = (f * self.VELOCITIES[:, 0]).sum(axis=2) / rho
        uy = (f * self.VELOCITIES[:, 1]).sum(axis=2) / rho
        # BGK collision toward equilibrium.
        feq = np.empty_like(f)
        usq = ux * ux + uy * uy
        for i, (cx, cy) in enumerate(self.VELOCITIES):
            cu = cx * ux + cy * uy
            feq[:, :, i] = self.WEIGHTS[i] * rho * (
                1 + 3 * cu + 4.5 * cu * cu - 1.5 * usq)
        f_post = f + self.OMEGA * (feq - f)
        # Streaming with periodic boundaries.
        f_new = np.empty_like(f_post)
        for i, (cx, cy) in enumerate(self.VELOCITIES):
            f_new[:, :, i] = np.roll(
                np.roll(f_post[:, :, i], cy, axis=0), cx, axis=1)
        dst_arr.store_all(
            f_new.reshape(self.height * self.width, 9))
        self._step_parity += 1
        return float(rho.sum())

    def verify(self) -> bool:
        src_arr, _ = self._grids()
        mass = src_arr.load_all().sum()
        expected = self.width * self.height  # rho ~ 1 + small noise
        return bool(abs(mass - expected) / expected < 0.1)


class ImagickKernel(SpecKernel):
    """Normalized 3x3 convolution over an image plane (imagick blur)."""

    name = "imagick"

    def __init__(self, width: int = 64, height: int = 48,
                 seed: int = 5) -> None:
        self.width = width
        self.height = height
        self.rng = np.random.default_rng(seed)
        self._row = 1

    def setup(self, manager: PmoManager) -> None:
        self._pmo_src = manager.create("imagick-src", 8 * MIB)
        self._pmo_dst = manager.create("imagick-dst", 8 * MIB)
        self._pmo_kernel = manager.create("imagick-kernel", 1 * MIB)
        self.src = PmoArray.create(self._pmo_src,
                                   (self.height, self.width))
        self.dst = PmoArray.create(self._pmo_dst,
                                   (self.height, self.width))
        self.kernel = PmoArray.create(self._pmo_kernel, (3, 3))
        image = self.rng.random((self.height, self.width)) * 255.0
        self.src.store_all(image)
        self.dst.store_all(image)
        blur = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]],
                        dtype=float)
        self.kernel.store_all(blur / blur.sum())

    def pmo_names(self) -> List[str]:
        return ["imagick-src", "imagick-dst", "imagick-kernel"]

    def step(self) -> float:
        """Convolve one interior row (tile-at-a-time access)."""
        row = self._row
        k = self.kernel.load_all()
        above = self.src.load_row(row - 1)
        here = self.src.load_row(row)
        below = self.src.load_row(row + 1)
        out = here.copy()
        for col in range(1, self.width - 1):
            tile = np.array([above[col - 1:col + 2],
                             here[col - 1:col + 2],
                             below[col - 1:col + 2]])
            out[col] = float((tile * k).sum())
        self.dst.store_row(row, out)
        self._row += 1
        if self._row >= self.height - 1:
            self._row = 1
        return float(out.mean())

    def verify(self) -> bool:
        """The normalized kernel preserves interior brightness."""
        src = self.src.load_all()[1:-1, 1:-1]
        dst = self.dst.load_all()[1:-1, 1:-1]
        return bool(abs(dst.mean() - src.mean()) / src.mean() < 0.05)


class NabKernel(SpecKernel):
    """Lennard-Jones molecular dynamics (544.nab's force loops)."""

    name = "nab"

    def __init__(self, n_particles: int = 48, seed: int = 6) -> None:
        self.n = n_particles
        self.rng = np.random.default_rng(seed)
        self.dt = 0.001
        self.box = 12.0

    def setup(self, manager: PmoManager) -> None:
        self._pmo_pos = manager.create("nab-positions", 4 * MIB)
        self._pmo_vel = manager.create("nab-velocities", 4 * MIB)
        self._pmo_force = manager.create("nab-forces", 4 * MIB)
        self.pos = PmoArray.create(self._pmo_pos, (self.n, 3))
        self.vel = PmoArray.create(self._pmo_vel, (self.n, 3))
        self.force = PmoArray.create(self._pmo_force, (self.n, 3))
        # A jittered lattice avoids overlapping particles.
        grid = int(np.ceil(self.n ** (1 / 3)))
        points = []
        for i in range(self.n):
            x, y, z = i % grid, (i // grid) % grid, i // (grid * grid)
            points.append((x, y, z))
        pos = (np.array(points, dtype=float) + 0.5) \
            * (self.box / grid)
        pos += 0.05 * self.rng.standard_normal(pos.shape)
        self.pos.store_all(pos)
        vel = self.rng.standard_normal((self.n, 3)) * 0.1
        vel -= vel.mean(axis=0)   # zero net momentum
        self.vel.store_all(vel)
        self.force.store_all(self._compute_forces(pos))

    def pmo_names(self) -> List[str]:
        return ["nab-positions", "nab-velocities", "nab-forces"]

    def _compute_forces(self, pos: np.ndarray) -> np.ndarray:
        delta = pos[:, None, :] - pos[None, :, :]
        delta -= self.box * np.round(delta / self.box)  # min image
        r2 = (delta ** 2).sum(axis=2)
        np.fill_diagonal(r2, np.inf)
        r2 = np.maximum(r2, 0.64)  # soften the core
        inv6 = r2 ** -3
        magnitude = 24 * (2 * inv6 ** 2 - inv6) / r2
        return (magnitude[:, :, None] * delta).sum(axis=1)

    def step(self) -> float:
        """One velocity-Verlet step; returns kinetic energy."""
        pos = self.pos.load_all()
        vel = self.vel.load_all()
        force = self.force.load_all()
        vel_half = vel + 0.5 * self.dt * force
        pos_new = (pos + self.dt * vel_half) % self.box
        force_new = self._compute_forces(pos_new)
        vel_new = vel_half + 0.5 * self.dt * force_new
        self.pos.store_all(pos_new)
        self.vel.store_all(vel_new)
        self.force.store_all(force_new)
        return float(0.5 * (vel_new ** 2).sum())

    def verify(self) -> bool:
        """Momentum stays (near) zero and nothing exploded."""
        vel = self.vel.load_all()
        momentum = np.abs(vel.sum(axis=0)).max()
        return bool(momentum < 1.0 and np.isfinite(vel).all()
                    and np.abs(vel).max() < 100.0)


class XzKernel(SpecKernel):
    """LZ77 with a hash-chain match finder (657.xz's hot loop).

    Six PMOs used in stages, like the real benchmark: input text,
    hash heads, collision chains, output tokens, a literals staging
    buffer, and a scratch window.  ``verify`` decompresses the token
    stream and compares with the input.
    """

    name = "xz"

    MIN_MATCH = 4
    MAX_MATCH = 64
    HASH_BITS = 12
    TOKEN = struct.Struct("<BHH")   # kind, offset/char, length

    def __init__(self, chunk: int = 1024, total: int = 16 * 1024,
                 seed: int = 8) -> None:
        self.chunk = chunk
        self.total = total
        self.rng = np.random.default_rng(seed)
        self._cursor = 0
        self._out_count = 0

    def setup(self, manager: PmoManager) -> None:
        names = self.pmo_names()
        self._pmos = {name: manager.create(name, 4 * MIB)
                      for name in names}
        # Compressible input: repeated dictionary words + noise.
        words = [b"persistent", b"memory", b"object", b"window",
                 b"exposure", b"attach", b"detach", b"terp"]
        data = bytearray()
        while len(data) < self.total:
            if self.rng.random() < 0.85:
                data += words[int(self.rng.integers(0, len(words)))]
                data += b" "
            else:
                data += bytes(self.rng.integers(
                    97, 123, size=3, dtype=np.uint8))
        plain = bytes(data[:self.total])
        inp = self._pmos["xz-input"]
        self._input_oid = inp.pmalloc(self.total)
        inp.write(self._input_oid.offset, plain)
        inp.root_oid = self._input_oid
        hash_size = 1 << self.HASH_BITS
        self.heads = PmoArray.create(self._pmos["xz-hash"],
                                     (hash_size,), dtype=np.int64)
        self.heads.store_all(np.full(hash_size, -1, dtype=np.int64))
        self.chains = PmoArray.create(self._pmos["xz-chain"],
                                      (self.total,), dtype=np.int64)
        self.chains.store_all(np.full(self.total, -1, dtype=np.int64))
        self._token_oid = self._pmos["xz-tokens"].pmalloc(
            self.total * self.TOKEN.size)
        self._lit_buf = PmoArray.create(self._pmos["xz-literals"],
                                        (self.chunk,), dtype=np.uint8)
        self._window = PmoArray.create(self._pmos["xz-window"],
                                       (self.chunk,), dtype=np.uint8)

    def pmo_names(self) -> List[str]:
        return ["xz-input", "xz-hash", "xz-chain", "xz-tokens",
                "xz-literals", "xz-window"]

    def _hash(self, data: bytes) -> int:
        value = int.from_bytes(data[:self.MIN_MATCH], "little")
        return (value * 2654435761) % (1 << self.HASH_BITS)

    def step(self) -> float:
        """Compress one chunk; returns the achieved ratio so far."""
        if self._cursor >= self.total:
            return self.ratio()
        end = min(self._cursor + self.chunk, self.total)
        data = self._pmos["xz-input"].read(self._input_oid.offset,
                                           self.total)
        heads = self.heads.load()
        chains = self.chains.load()
        tokens_pmo = self._pmos["xz-tokens"]
        pos = self._cursor
        while pos < end:
            best_len = 0
            best_offset = 0
            if pos + self.MIN_MATCH <= self.total:
                h = self._hash(data[pos:pos + self.MIN_MATCH])
                candidate = int(heads[h])
                tries = 0
                while candidate >= 0 and tries < 16:
                    length = 0
                    limit = min(self.MAX_MATCH, self.total - pos)
                    while length < limit and \
                            data[candidate + length] == \
                            data[pos + length]:
                        length += 1
                    if length > best_len:
                        best_len = length
                        best_offset = pos - candidate
                    candidate = int(chains[candidate])
                    tries += 1
                chains[pos] = heads[h]
                heads[h] = pos
            if best_len >= self.MIN_MATCH and best_offset < 65536:
                token = self.TOKEN.pack(1, best_offset, best_len)
                pos += best_len
            else:
                token = self.TOKEN.pack(0, data[pos], 1)
                pos += 1
            tokens_pmo.write(self._token_oid.offset
                             + self._out_count * self.TOKEN.size,
                             token)
            self._out_count += 1
        self.heads.store(heads)
        self.chains.store(chains)
        # A match may legally run past the chunk boundary; the cursor
        # must follow it or the overlap would be emitted twice.
        self._cursor = pos
        return self.ratio()

    def ratio(self) -> float:
        if self._cursor == 0:
            return 1.0
        return (self._out_count * self.TOKEN.size) / self._cursor

    def decompress(self) -> bytes:
        tokens_pmo = self._pmos["xz-tokens"]
        out = bytearray()
        for i in range(self._out_count):
            raw = tokens_pmo.read(self._token_oid.offset
                                  + i * self.TOKEN.size,
                                  self.TOKEN.size)
            kind, a, b = self.TOKEN.unpack(raw)
            if kind == 0:
                out.append(a)
            else:
                start = len(out) - a
                for j in range(b):
                    out.append(out[start + j])
        return bytes(out)

    def verify(self) -> bool:
        original = self._pmos["xz-input"].read(self._input_oid.offset,
                                               self.total)
        return self.decompress() == original[:self._cursor]


ALL_KERNELS = {
    "mcf": McfKernel,
    "lbm": LbmKernel,
    "imagick": ImagickKernel,
    "nab": NabKernel,
    "xz": XzKernel,
}


def make_kernel(name: str, **kwargs) -> SpecKernel:
    if name not in ALL_KERNELS:
        raise KeyError(f"unknown kernel {name!r}")
    return ALL_KERNELS[name](**kwargs)
