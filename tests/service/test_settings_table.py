"""The settings table is the only statement of terpd's tuning knobs.

Conformance: every row of :data:`repro.service.launch.SETTINGS` is a
``TerpService`` keyword with the constructor's own default, every CLI
declares exactly its own options plus the rows, and the cluster hands
one mapping to each shard, its standby and the router.  Golden:
``fixtures/cli_flags_at_parent.json`` is the three parsers' option
strings, dests, types and defaults captured at the parent commit of
the PR that introduced the table (by the ``surface`` below); the
table-built parsers must reproduce it, the one addition being
``repro.cluster --cb-capacity``.  The flag <-> keyword round trip is
``tests/test_topology.py::TestSettings``.
"""

import inspect
import json
import os
import re

import pytest

import repro.cluster.__main__ as cluster_cli
import repro.replication.__main__ as standby_cli
import repro.service.__main__ as service_cli
from repro.cluster import ClusterSupervisor, supervisor
from repro.replication import promote
from repro.service.launch import SETTINGS, to_flags
from repro.service.server import TerpService
from repro.topology import BANNERS, HOST, Proc

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "fixtures", "cli_flags_at_parent.json")
TERPBENCH_TOPOLOGY = os.path.join(
    HERE, "..", "..", "benchmarks", "terpbench", "topology.py")
CLIS = {"repro.service": service_cli, "repro.cluster": cluster_cli,
        "repro.replication": standby_cli}
#: What each CLI declares for itself; the rest is the table's.
OWN = {
    "repro.service": {"--host", "--port", "--unix", "--pool-dir",
                      "--replicate-to", "--profile", "--metrics-dump",
                      "--quiet"},
    "repro.cluster": {"--shards", "--routers", "--host", "--port",
                      "--pool-dir", "--profile", "--state-file",
                      "--replicas", "--quiet"},
    "repro.replication": {"--pool-dir", "--host", "--listen-port",
                          "--quiet"},
}
#: ``TerpService`` keywords that are not tuning: where it serves and
#: stores, and what only an embedder or the supervisor passes.
NOT_SETTINGS = {"host", "port", "unix_path", "pool_dir", "replicate_to",
                "obs", "faults", "max_sessions", "scrub_pages_per_sweep",
                "shard_index", "shard_count"}


def surface(parser):
    return {action.option_strings[0]: {
        "dest": action.dest,
        "type": getattr(action.type, "__name__", None),
        "default": action.default}
        for action in parser._actions if action.dest != "help"}


class TestConformance:
    def test_every_row_is_a_service_keyword_with_its_default(self):
        params = inspect.signature(TerpService.__init__).parameters
        for field, row in SETTINGS.items():
            assert row.field == field
            assert params[field].default == row.default, field
            assert row.flag.startswith("--") and row.help
            assert row.type in (int, float, bool)
        assert set(params) - {"self"} - NOT_SETTINGS == set(SETTINGS)

    @pytest.mark.parametrize("cli", CLIS)
    def test_a_cli_declares_its_own_options_plus_the_rows(self, cli):
        options = set(surface(CLIS[cli].build_parser()))
        assert options == OWN[cli] | {
            row.flag for row in SETTINGS.values()}

    @pytest.mark.parametrize("cli", CLIS)
    def test_the_cli_surface_is_the_parents(self, cli):
        with open(FIXTURE, encoding="utf-8") as fh:
            at_parent = json.load(fh)[cli]
        assert len(at_parent) == {"repro.service": 16,
                                  "repro.cluster": 16,
                                  "repro.replication": 12}[cli]
        now = surface(CLIS[cli].build_parser())
        added = {flag: now.pop(flag) for flag in set(now) - set(at_parent)}
        assert now == at_parent
        assert added == ({"--cb-capacity": {
            "dest": "cb_capacity", "type": "int", "default": 32}}
            if cli == "repro.cluster" else {})


    def test_readme_states_the_rows(self):
        with open(os.path.join(HERE, "..", "..", "README.md"),
                  encoding="utf-8") as fh:
            stated = re.findall(r"^\| `(--[\w-]+)` \| `(\w+)` \| (\S+) \|",
                                fh.read(), re.MULTILINE)
        defaults = {flag: str(option["default"]) for flag, option in
                    surface(service_cli.build_parser()).items()}
        assert stated == [
            (row.flag, row.field,
             "on" if row.type is bool else defaults[row.flag])
            for row in SETTINGS.values()]


class Captured(Exception):
    """Raised in place of building a node: carries its keywords."""


class Pipe:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def close(self):
        pass


def captured(monkeypatch, module, name, main, *args):
    """The keywords child entry point ``main`` builds its node with
    (``module.name``, replaced by a constructor that raises them)."""
    def refuse(*_, **kwargs):
        raise Captured(kwargs)
    monkeypatch.setattr(module, name, refuse)
    pipe = Pipe()
    with pytest.raises(Captured) as raised:
        main(*args, pipe)
    # Failing before ``ready`` goes up the pipe as the reason.
    assert "Captured" in pipe.sent[0]["error"]
    return raised.value.args[0]


class TestClusterReadsOneMapping:
    TUNED = {"session_ew_ns": 80_000_000, "sweep_period_ns": 3_000_000,
             "session_linger_ns": 7_000_000_000, "cb_capacity": 8,
             "seed": 9}

    def test_field_names_route_into_the_service_mapping(self):
        sup = ClusterSupervisor(shards=3, **self.TUNED)
        assert sup.config.shards == 3
        assert sup.config.service == self.TUNED
        cli = cluster_cli.make_config(
            cluster_cli.build_parser().parse_args(
                ["--shards", "3", *to_flags(self.TUNED)]))
        assert {k: cli.service[k] for k in self.TUNED} == self.TUNED
        assert set(cli.service) == set(SETTINGS)

    def test_shard_standby_and_router_get_the_same_values(
            self, monkeypatch):
        import repro.cluster.router
        import repro.replication.applier
        import repro.service.server
        config = ClusterSupervisor(
            shards=2, pool_dir="unused", **self.TUNED).config
        shard = captured(
            monkeypatch, repro.service.server, "TerpService",
            supervisor._shard_main, config, 1, 0, "pool", None)
        standby = captured(
            monkeypatch, repro.replication.applier, "StandbyDaemon",
            supervisor._standby_main, config, 1, 0, "pool")
        router = captured(
            monkeypatch, repro.cluster.router, "TerpRouter",
            supervisor._router_main, config, 0, 0, [(HOST, 1)], False)
        # Shard i and its standby seed with seed + i; the router's
        # ring and tokens with the base seed.
        expected = {**self.TUNED, "seed": self.TUNED["seed"] + 1}
        assert {k: shard[k] for k in expected} == expected
        assert standby["service_kwargs"] == {
            k: v for k, v in shard.items()
            if k not in ("port", "pool_dir", "replicate_to")}
        assert {k: router[k] for k in (
            "session_ew_ns", "session_linger_ns", "seed")} == {
            k: self.TUNED[k] for k in (
                "session_ew_ns", "session_linger_ns", "seed")}


class TestBanners:
    """Each CLI's startup line, whole: what ``repro.topology.BANNERS``,
    terpbench's three patterns (read from its source, which this repo's
    PRs may not edit), CI and README all match against."""

    @pytest.fixture(scope="class")
    def terpbench_patterns(self):
        with open(TERPBENCH_TOPOLOGY, encoding="utf-8") as fh:
            found = dict(re.findall(
                r'^_(\w+)_RE = re\.compile\(r"(.+)"\)$', fh.read(),
                re.MULTILINE))
        assert set(found) == {"SERVICE", "CLUSTER", "STANDBY"}
        return {"repro.service": re.compile(found["SERVICE"]),
                "repro.cluster": re.compile(found["CLUSTER"]),
                "repro.replication": re.compile(found["STANDBY"])}

    def banner(self, proc, patterns):
        port = proc.ready()
        # A cluster's children announce themselves first.
        line = next(line for line in proc.lines
                    if BANNERS[proc.module].search(line))
        for pattern in (BANNERS[proc.module], patterns[proc.module]):
            assert pattern.search(line).group(1) == str(port)
        return port, line

    def test_service(self, terpbench_patterns):
        proc = Proc("repro.service", ["--port", "0"])
        try:
            port, line = self.banner(proc, terpbench_patterns)
        finally:
            assert proc.stop() == 0
        assert line == (f"terpd serving on tcp://127.0.0.1:{port} "
                        f"(session EW budget 50.0ms, sweep every 10.0ms)")

    def test_standby_and_its_promotion(self, terpbench_patterns,
                                       tmp_path):
        proc = Proc("repro.replication", [
            "--pool-dir", str(tmp_path), "--listen-port", "0"])
        try:
            port, line = self.banner(proc, terpbench_patterns)
            serving = promote(HOST, port, 0)
        finally:
            assert proc.stop() == 0
        assert line == (f"standby listening on 127.0.0.1:{port} "
                        f"(pool {tmp_path})")
        assert proc.lines[1] == ("standby promoted, terpd serving on "
                                 f"tcp://127.0.0.1:{serving}")

    def test_cluster_and_its_state_file(self, terpbench_patterns,
                                        tmp_path):
        state_file = tmp_path / "state.json"
        proc = Proc("repro.cluster", [
            "--shards", "2", "--port", "0",
            "--state-file", str(state_file)])
        try:
            port, line = self.banner(proc, terpbench_patterns)
            # Written before the banner: terpbench reads it at once.
            state = json.loads(state_file.read_text())
        finally:
            assert proc.stop() == 0
        ports = [shard["port"] for shard in state["shards"]]
        assert line == (f"terpd cluster serving on tcp://127.0.0.1:"
                        f"{port} (2 shards: ports {ports})")
        assert list(state) == ["front_port", "host", "shards",
                               "routers", "standbys", "promotions"]
        assert list(state["shards"][0]) == ["index", "port", "pid",
                                            "restarts"]
        assert list(state["routers"][0]) == ["index", "port", "pid"]
        assert state["front_port"] == port
