"""The metric table is the only statement of the metric set.

Conformance, modelled on ``test_op_table.py``: every row of
:data:`repro.service.metrics.SERIES` is an instrument of a live
daemon's registry with its declared kind and help, every ``global``
row is a key of the ``metrics`` report and nothing else is, nothing
under ``src/`` creates an instrument except through a row — and every
leaf of a live report that is not an additive count has a declared
cross-shard merge rule (the check that would have caught
``silent_percent`` being summed).
"""

import os
import re

import pytest

from repro.cluster.aggregate import _MERGE
from repro.core.units import MIB
from repro.obs.registry import Counter, Gauge, Histogram
from repro.service import metrics as table
from repro.service.client import SyncTerpClient
from repro.service.metrics import (
    COUNTER, FAMILY, GAUGE, HISTOGRAM, MERGE_RULES, PER_SHARD, SUM)
from repro.service.server import ServiceThread, TerpService

SERIES = table.SERIES.values()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")
INSTRUMENT_CLASS = {COUNTER: Counter, FAMILY: Counter, GAUGE: Gauge,
                    HISTOGRAM: Histogram}
#: Leaf names that say "not a count" whatever their JSON type.
NON_ADDITIVE_NAME = re.compile(
    r"(_max_ns|_mean_ns|_percent|epoch_wall_ns|downtime_ns)$")


@pytest.fixture(scope="module")
def report_and_prometheus(tmp_path_factory):
    """``metrics {raw: true}`` and the ``prometheus`` text from a
    durable daemon that has served attach/detach, a forced detach, an
    injected-fault tally and a warm restart."""
    kwargs = dict(port=0, seed=7, session_ew_ns=30_000_000,
                  sweep_period_ns=5_000_000, shard_index=0,
                  shard_count=1,
                  pool_dir=str(tmp_path_factory.mktemp("pool")))
    thread = ServiceThread(TerpService(**kwargs))
    with SyncTerpClient(port=thread.start().bound_port) as client:
        client.create("table", MIB)
        client.attach("table")
        client.psync("table")
        thread.kill()
    thread = ServiceThread(TerpService(**kwargs))
    service = thread.start()
    try:
        service.metrics.note_fault("test.site")
        with SyncTerpClient(port=service.bound_port) as client:
            client.attach("table")
            client.detach("table")
            client.attach("table")
            while not client.forced_detaches:
                client.ping()
            report = client.call("metrics", raw=True)
            text = client.prometheus()
    finally:
        thread.stop()
    return report, text


class TestRows:
    def test_rows_are_well_formed(self):
        assert len({row.name for row in SERIES}) == len(SERIES)
        for key, row in table.SERIES.items():
            assert row.key == key
            assert row.kind in INSTRUMENT_CLASS, row.key
            assert row.name.startswith("terpd_") and row.help, row.key
            assert (row.label is not None) == (row.kind == FAMILY)
            assert row.merge == SUM or row.merge in _MERGE, row.key

    def test_every_row_is_registered_with_its_kind_and_help(self):
        service = TerpService(port=0)
        service.metrics.note_request("ping", 1_000, ok=True)
        service.metrics.note_fault("test.site")
        by_name = {}
        for instrument in service.obs.registry.instruments():
            by_name.setdefault(instrument.name, instrument)
        assert set(by_name) == {row.name for row in SERIES}
        for row in SERIES:
            instrument = by_name[row.name]
            assert type(instrument) is INSTRUMENT_CLASS[row.kind]
            assert instrument.help_text == row.help, row.key
            assert (row.label in dict(instrument.labels)) == \
                (row.kind == FAMILY), row.key

    def test_global_section_is_exactly_the_global_rows_in_order(
            self, report_and_prometheus):
        report, _ = report_and_prometheus
        assert list(report["global"]) == [
            row.key for row in SERIES if row.in_global]
        assert "repl_ack_latency" not in report["global"]
        assert "sessions" not in report["global"]
        service = TerpService(port=0)
        assert service.metrics.to_dict().keys() == \
            report["global"].keys()
        for row in SERIES:      # read access: metrics.<key>
            assert getattr(service.metrics, row.key) == \
                row.read(service.metrics.series[row.key])
        with pytest.raises(AttributeError):
            service.metrics.no_such_series

    def test_every_prometheus_family_is_a_row(
            self, report_and_prometheus):
        _, text = report_and_prometheus
        families = dict(re.findall(r"^# TYPE (\S+) (\S+)$", text,
                                   re.MULTILINE))
        kind_of = {row.name: "counter" if row.kind == FAMILY
                   else row.kind for row in SERIES}
        assert families == kind_of
        helps = dict(re.findall(r"^# HELP (\S+) (.+)$", text,
                                re.MULTILINE))
        assert helps == {row.name: row.help for row in SERIES}

    def test_no_instrument_is_created_outside_the_table(self):
        creates = re.compile(r"\.(counter|gauge|histogram)\b")
        offenders = []
        for folder, _, files in os.walk(SRC):
            for name in files:
                path = os.path.join(folder, name)
                if not name.endswith(".py") or \
                        path.endswith(os.path.join("obs", "registry.py")):
                    continue
                with open(path, encoding="utf-8") as fh:
                    for number, line in enumerate(fh, start=1):
                        if creates.search(line):
                            offenders.append((path, number))
        allowed = os.path.abspath(table.__file__)
        assert {path for path, _ in offenders} == {allowed}, offenders


def unruled_leaves(tree, path=""):
    """Paths of the non-additive leaves no merge rule covers."""
    if path in MERGE_RULES:
        return []
    if isinstance(tree, dict):
        return [bad for key, value in tree.items() for bad in
                unruled_leaves(value, f"{path}.{key}" if path else key)]
    additive = type(tree) is int and not NON_ADDITIVE_NAME.search(path)
    return [] if additive else [path]


class TestMergeRules:
    def test_every_non_additive_leaf_of_a_live_report_has_a_rule(
            self, report_and_prometheus):
        report, _ = report_and_prometheus
        assert report["recovery"]["sessions_restored"] == 1
        assert report["global"]["forced_detaches"] >= 1
        assert report["global"]["faults_by_site"] == {"test.site": 1}
        assert report["audit"]["per_pmo"] and "session" in report
        assert unruled_leaves(report) == []

    def test_the_check_catches_an_undeclared_leaf(
            self, report_and_prometheus):
        report, _ = report_and_prometheus
        grown = dict(report, runtime=dict(
            report["runtime"], hit_ratio=0.5, window_max_ns=7,
            mode="fast", log=[], attach_calls=3))
        assert unruled_leaves(grown) == [
            "runtime.hit_ratio", "runtime.window_max_ns",
            "runtime.mode", "runtime.log"]
        assert unruled_leaves({"runtime": {"silent_percent": 1.0}}) == []

    def test_every_rule_names_a_live_path_and_a_known_kind(
            self, report_and_prometheus):
        report, _ = report_and_prometheus
        for path, (kind, *params) in MERGE_RULES.items():
            assert kind == PER_SHARD or kind in _MERGE, path
            node = report
            for key in path.split("."):
                assert key in node, path
                node = node[key]
