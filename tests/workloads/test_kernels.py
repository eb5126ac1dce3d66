"""The executable SPEC-style kernels."""

import numpy as np
import pytest

from repro.pmo.pool import PmoManager
from repro.workloads.spec.base import SPEC
from repro.workloads.spec.kernels import (
    ALL_KERNELS, ImagickKernel, LbmKernel, make_kernel, McfKernel,
    NabKernel, XzKernel)


def build(name, **kwargs):
    mgr = PmoManager()
    kernel = make_kernel(name, **kwargs)
    kernel.setup(mgr)
    return kernel, mgr


class TestKernelRoster:
    def test_five_kernels_matching_trace_specs(self):
        assert set(ALL_KERNELS) == set(SPEC)

    def test_pmo_counts_match_table4(self):
        for name, bench in SPEC.items():
            kernel, _ = build(name)
            assert len(kernel.pmo_names()) == bench.n_pmos, name

    def test_unknown_kernel(self):
        with pytest.raises(KeyError):
            make_kernel("doom3")

    def test_all_pmos_registered(self):
        for name in ALL_KERNELS:
            kernel, mgr = build(name)
            registered = {p.name for p in mgr.all_pmos()}
            assert set(kernel.pmo_names()) <= registered


class TestMcf:
    def test_augmentation_makes_progress(self):
        kernel, _ = build("mcf")
        pushed = kernel.step()
        assert pushed > 0
        assert kernel.total_flow == pushed

    def test_flow_feasible_throughout(self):
        kernel, _ = build("mcf")
        for _ in range(8):
            kernel.step()
            assert kernel.verify()

    def test_terminates_at_max_flow(self):
        kernel, _ = build("mcf", n_nodes=16, n_arcs=40)
        for _ in range(200):
            if kernel.step() == 0.0:
                break
        assert kernel.step() == 0.0    # saturated
        assert kernel.total_flow > 0
        assert kernel.verify()

    def test_cost_accumulates(self):
        kernel, _ = build("mcf")
        kernel.step()
        kernel.step()
        assert kernel.total_cost > 0


class TestLbm:
    def test_mass_conserved(self):
        kernel, _ = build("lbm")
        masses = [kernel.step() for _ in range(5)]
        assert np.allclose(masses, masses[0], rtol=1e-9)
        assert kernel.verify()

    def test_lattices_alternate(self):
        kernel, _ = build("lbm")
        a0 = kernel.lattice_a.load_all().copy()
        kernel.step()   # writes into lattice B
        assert (kernel.lattice_a.load_all() == a0).all()
        kernel.step()   # writes back into lattice A
        assert not (kernel.lattice_a.load_all() == a0).all()

    def test_flow_develops(self):
        kernel, _ = build("lbm")
        before = kernel.lattice_a.load_all().copy()
        for _ in range(4):
            kernel.step()
        after = kernel.lattice_a.load_all()
        assert not np.allclose(before, after)


class TestImagick:
    def test_brightness_preserved(self):
        kernel, _ = build("imagick")
        for _ in range(kernel.height - 2):
            kernel.step()
        assert kernel.verify()

    def test_blur_reduces_variance(self):
        kernel, _ = build("imagick")
        src_var = kernel.src.load_all()[1:-1, 1:-1].var()
        for _ in range(kernel.height - 2):
            kernel.step()
        dst_var = kernel.dst.load_all()[1:-1, 1:-1].var()
        assert dst_var < src_var

    def test_row_cursor_wraps(self):
        kernel, _ = build("imagick", width=16, height=6)
        for _ in range(10):
            kernel.step()
        assert 1 <= kernel._row < kernel.height - 1


class TestNab:
    def test_momentum_conserved(self):
        kernel, _ = build("nab")
        for _ in range(10):
            kernel.step()
        assert kernel.verify()

    def test_particles_stay_in_box(self):
        kernel, _ = build("nab")
        for _ in range(10):
            kernel.step()
        pos = kernel.pos.load_all()
        assert (pos >= 0).all() and (pos < kernel.box).all()

    def test_kinetic_energy_finite(self):
        kernel, _ = build("nab")
        energies = [kernel.step() for _ in range(10)]
        assert all(np.isfinite(e) for e in energies)


class TestXz:
    def test_roundtrip(self):
        kernel, _ = build("xz", total=4096, chunk=1024)
        while kernel._cursor < kernel.total:
            kernel.step()
        assert kernel.verify()

    def test_compresses_redundant_input(self):
        kernel, _ = build("xz", total=8192, chunk=2048)
        while kernel._cursor < kernel.total:
            kernel.step()
        assert kernel.ratio() < 0.9

    def test_partial_roundtrip_after_each_chunk(self):
        kernel, _ = build("xz", total=3072, chunk=1024)
        while kernel._cursor < kernel.total:
            kernel.step()
            assert kernel.verify()

    def test_six_pmos_in_stages(self):
        kernel, _ = build("xz")
        assert len(kernel.pmo_names()) == 6


class TestKernelPersistence:
    def test_lbm_state_survives_reboot(self):
        mgr = PmoManager()
        kernel = make_kernel("lbm")
        kernel.setup(mgr)
        kernel.step()
        snapshot = kernel.lattice_b.load_all().copy()
        mgr.simulate_reboot()
        assert (kernel.lattice_b.load_all() == snapshot).all()
