"""Table II parameters, the cost model, and the die-area estimate."""

import pytest

from repro.arch.area import circular_buffer_area, sram_array_area_um2
from repro.arch.params import (
    CATEGORIES, CostBreakdown, CostModel, DEFAULT_PARAMS, SimParams)


class TestParams:
    def test_table2_values(self):
        p = DEFAULT_PARAMS
        assert p.num_cores == 4
        assert p.freq_ghz == 2.2
        assert p.attach_syscall == 4422
        assert p.detach_syscall == 3058
        assert p.randomization == 3718
        assert p.tlb_invalidation == 550
        assert p.silent_cond == 27
        assert p.matrix_check == 1

    def test_params_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_PARAMS.num_cores = 8


class TestCostBreakdown:
    def test_add_and_total(self):
        b = CostBreakdown()
        b.add("attach", 100)
        b.add("cond", 27)
        assert b.total_cycles == 127

    def test_unknown_category_rejected(self):
        with pytest.raises(KeyError):
            CostBreakdown().add("bogus", 1)

    def test_merge(self):
        a, b = CostBreakdown(), CostBreakdown()
        a.add("attach", 10)
        b.add("attach", 5)
        b.add("rand", 7)
        a.merge(b)
        assert a.cycles["attach"] == 15
        assert a.cycles["rand"] == 7

    def test_fractions_sum_to_one(self):
        b = CostBreakdown()
        for i, c in enumerate(CATEGORIES):
            b.add(c, i + 1)
        assert sum(b.fractions().values()) == pytest.approx(1.0)

    def test_fractions_empty(self):
        assert all(v == 0 for v in CostBreakdown().fractions().values())


class TestCostModel:
    def test_silent_attach_is_27_cycles(self):
        model = CostModel()
        b = CostBreakdown()
        cycles = model.charge_attach(b, performed=False)
        assert cycles == 27
        assert b.cycles["cond"] == 27
        assert b.cycles["attach"] == 0

    def test_performed_attach_is_syscall_cost(self):
        model = CostModel()
        b = CostBreakdown()
        assert model.charge_attach(b, performed=True) == 4422
        assert b.cycles["attach"] == 4422

    def test_performed_detach_includes_shootdown(self):
        model = CostModel()
        b = CostBreakdown()
        assert model.charge_detach(b, performed=True) == 3058 + 550

    def test_randomize_scales_with_threads(self):
        model = CostModel()
        b = CostBreakdown()
        single = model.charge_randomize(b, num_threads_suspended=1)
        multi = model.charge_randomize(b, num_threads_suspended=4)
        assert multi > single
        assert b.cycles["rand"] == single + multi

    def test_silent_path_is_two_orders_cheaper(self):
        """The core performance claim: a silent op is ~160x cheaper
        than an attach syscall."""
        model = CostModel()
        assert model.attach_performed() / model.silent_op() > 100


class TestAreaModel:
    def test_paper_configuration_reproduced(self):
        """Section V-B: 140 bytes, ~0.006% of a 45nm Nehalem die."""
        est = circular_buffer_area()
        assert est.bytes == 140
        assert est.die_fraction_percent == pytest.approx(0.006, rel=0.15)

    def test_area_monotone_in_capacity(self):
        assert circular_buffer_area(64).area_um2 > \
            circular_buffer_area(32).area_um2

    def test_small_arrays_dominated_by_periphery(self):
        per_bit_small = sram_array_area_um2(128) / 128
        per_bit_large = sram_array_area_um2(1 << 20) / (1 << 20)
        assert per_bit_small > 10 * per_bit_large

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            sram_array_area_um2(0)
