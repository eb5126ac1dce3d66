"""The experiment drivers, at reduced scale (shape assertions only).

The full-scale shape checks live in benchmarks/; here each driver is
exercised end to end with small inputs to pin its structure and the
relationships that must hold at any scale.
"""

import pytest

from repro.eval.configs import config, DEFAULT_EW_US, DEFAULT_TEW_US
from repro.eval.experiments import (
    exposure, fig8, overhead, table5, table6)
from repro.core.errors import ConfigurationError

TXS = 800
ITERS = 600


class TestConfigs:
    def test_all_keys_buildable(self):
        from repro.core.units import MIB
        sizes = {"p": 8 * MIB}
        for key in ("MM", "TM", "TT", "TT_BASIC", "TT_COND"):
            machine = config(key).build(sizes)
            assert machine.engine is not None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config("XX")

    def test_defaults_match_paper(self):
        assert DEFAULT_EW_US == 40.0
        assert DEFAULT_TEW_US == 2.0

    def test_ew_target_parameterized(self):
        cfg = config("TT", ew_target_us=160.0)
        assert "160" in cfg.label


@pytest.fixture(scope="module")
def t3():
    return exposure.run("whisper", ops=TXS, names=["echo", "redis"])


class TestTable3:
    def test_rows_and_render(self, t3):
        assert [r.name for r in t3.rows] == ["echo", "redis"]
        text = exposure.render_table3(t3)
        assert "Table III" in text and "echo" in text

    def test_terp_ews_stable_at_target(self, t3):
        for row in t3.rows:
            assert row.tt_ew_avg_us == pytest.approx(40.0, abs=4.0)
            assert row.tt_ew_max_us <= 45.0

    def test_merr_ews_unstable(self, t3):
        for row in t3.rows:
            assert row.mm_ew_max_us > row.mm_ew_avg_us * 1.3

    def test_tew_below_target(self, t3):
        for row in t3.rows:
            assert row.tt_tew_us <= 2.5

    def test_ter_below_er(self, t3):
        for row in t3.rows:
            assert row.tt_ter_percent < row.tt_er_percent

    def test_most_calls_silent(self, t3):
        for row in t3.rows:
            assert row.tt_silent_percent > 70.0

    def test_averages_row(self, t3):
        avg = t3.averages()
        assert avg.name == "Avg."
        expected = (t3.rows[0].tt_silent_percent
                    + t3.rows[1].tt_silent_percent) / 2
        assert avg.tt_silent_percent == pytest.approx(expected)


class TestFig9:
    def test_config_ordering(self):
        result = overhead.run("fig9", ops=TXS, names=["redis"])
        bars = {b.label: b.total_percent for b in result.bars["redis"]}
        # TT < MM < TM, and TT overhead falls as the EW target grows.
        assert bars["TT (40us)"] < bars["MM (40us)"]
        assert bars["MM (40us)"] < bars["TM (40us)"]
        assert bars["TT (160us)"] <= bars["TT (40us)"] + 0.5

    def test_breakdown_categories(self):
        result = overhead.run("fig9", ops=TXS, names=["redis"])
        breakdown = result.bars["redis"][0].breakdown_percent
        assert set(breakdown) == {"attach", "detach", "rand", "cond",
                                  "other"}

    def test_render(self):
        result = overhead.run("fig9", ops=TXS, names=["redis"])
        assert "Figure 9" in result.render()


@pytest.fixture(scope="module")
def t4():
    return exposure.run("spec", ops=ITERS, names=["lbm", "xz"])


class TestTable4:
    def test_pmo_counts_from_paper(self, t4):
        counts = {r.name: r.n_pmos for r in t4.rows}
        assert counts == {"lbm": 2, "xz": 6}

    def test_more_pmos_lower_exposure(self, t4):
        by_name = {r.name: r for r in t4.rows}
        assert by_name["xz"].tt_er_percent < by_name["lbm"].tt_er_percent

    def test_silent_above_85(self, t4):
        for row in t4.rows:
            assert row.tt_silent_percent > 85.0

    def test_render(self, t4):
        assert "Table IV" in exposure.render_table4(t4)


class TestFig10:
    def test_spec_overheads_ordering(self):
        result = overhead.run("fig10", ops=ITERS, names=["lbm"])
        bars = {b.label: b.total_percent for b in result.bars["lbm"]}
        assert bars["TT (40us)"] < bars["MM (40us)"]
        assert bars["MM (40us)"] > 100.0   # SPEC MM blows up

    def test_render_mentions_spec(self):
        result = overhead.run("fig10", ops=200, names=["xz"])
        assert "Figure 10" in result.render()


class TestFig11:
    def test_basic_worst_cb_best(self):
        result = overhead.run("fig11", ops=ITERS, names=["lbm"],
                              num_threads=4)
        bars = {b.label: b.total_percent for b in result.bars["lbm"]}
        assert bars["Basic semantics"] > bars["+Cond (40us)"]
        assert bars["+CB (40us)"] <= bars["+Cond (40us)"]

    def test_blocking_recorded_for_basic(self):
        result = overhead.run("fig11", ops=400, names=["lbm"],
                              num_threads=4)
        assert result.blocked_ns["lbm"] > 0


class TestFig8:
    def test_headline(self):
        result = fig8.run(n_objects_per_profile=300)
        assert 0.90 <= result.surface_reduction_at_2us <= 0.99
        assert "Figure 8" in result.render()


class TestTable5:
    def test_paper_values(self):
        result = table5.run()
        assert result.merr_1us == pytest.approx(0.0153, abs=0.001)
        assert result.terp_1us == pytest.approx(0.00051, abs=0.0001)
        assert result.reduction == pytest.approx(30.0, rel=0.05)
        assert "Table V" in result.render()

    def test_entropy_is_18_bits(self):
        assert table5.run().entropy_bits == 18


class TestTable6:
    def test_census_shape(self):
        result = table6.run(ops={"whisper": 500, "spec": 400})
        assert result.whisper.terp_disarmed_percent > 85.0
        assert result.spec.terp_disarmed_percent > 80.0
        assert result.whisper.terp_disarmed_percent > \
            result.whisper.merr_disarmed_percent
        assert len(result.scenarios) == 6
        assert "Table VI" in result.render()
