"""``repro.topology``: the one child-process spawner and the verbs the
four topologies share.

The chaos rows drive every topology end to end
(``tests/faults/test_chaos_engine.py``); what is pinned here is what a
green run never reaches: a startup wait that must end at its deadline,
and the one spelling of the daemon knobs.
"""

import random
import time

import pytest

from repro.cluster.__main__ import build_parser as cluster_parser
from repro.replication.__main__ import build_parser as standby_parser
from repro.service.__main__ import build_parser as service_parser
from repro.service.client import SyncTerpClient
from repro.service.launch import SETTINGS, from_args, to_flags
from repro.topology import BANNERS, TOPOLOGIES, Proc


class TestProc:
    def test_a_child_that_never_prints_its_banner_costs_the_deadline(
            self):
        """``--quiet`` serves and prints nothing — a child wedged
        before its banner, as far as the parent can tell.  A reader
        blocked in ``readline()`` would wait with it."""
        proc = Proc("repro.service", ["--port", "0", "--quiet"])
        started = time.monotonic()
        with pytest.raises(RuntimeError) as failure:
            proc.ready(timeout_s=1.0)
        assert time.monotonic() - started < 10.0
        assert "printed no banner" in str(failure.value)
        assert "rc=None" in str(failure.value)
        assert "no output" in str(failure.value)
        assert proc.popen.poll() is not None     # stopped, reaped

    def test_a_child_that_dies_reports_its_code_and_last_words(self):
        proc = Proc("repro.service", ["--no-such-flag"])
        with pytest.raises(RuntimeError) as failure:
            proc.ready()
        assert "exited during startup (rc=2" in str(failure.value)
        assert "unrecognized arguments: --no-such-flag" in \
            str(failure.value)

    def test_ready_returns_the_banners_port_and_stop_the_exit_code(
            self):
        proc = Proc("repro.service", ["--port", "0"])
        try:
            port = proc.ready()
            assert port > 0 and BANNERS["repro.service"].search(
                proc.lines[0]).group(1) == str(port)
            # Answered: the loop is up, signal handlers and all.
            with SyncTerpClient(port=port) as client:
                client.ping()
        finally:
            assert proc.stop() == 0
        assert proc.stop() == 0                  # idempotent


def settings_cases(count=300, seed=21):
    """Seeded ``TerpService`` keyword subsets, the clamps' edges and
    the value ``int(ms * 1e6)`` used to truncate among them."""
    rng = random.Random(seed)
    draw = {
        "ew_target_us": lambda: round(rng.uniform(0.5, 500.0), 3),
        "session_ew_ns": lambda: rng.randrange(10 ** 11),
        "sweep_period_ns": lambda: rng.randrange(1, 10 ** 8),
        "session_linger_ns": lambda: rng.randrange(10 ** 11),
        "cb_capacity": lambda: rng.randrange(1, 65),
        "commit_interval_us": lambda: rng.randrange(5000),
        "seed": lambda: rng.randrange(2 ** 31),
        "obs_enabled": lambda: rng.random() < 0.5,
    }
    assert set(draw) == set(SETTINGS)
    yield {"sweep_period_ns": 1_001_000}
    yield {"sweep_period_ns": 1, "session_linger_ns": 0,
           "commit_interval_us": 0}
    for _ in range(count):
        fields = rng.sample(sorted(draw), rng.randrange(len(draw) + 1))
        yield {field: draw[field]() for field in fields}


class TestSettings:
    def test_flags_and_kwargs_spell_the_same_values(self):
        """``to_flags`` is ``from_args``' exact inverse through every
        CLI, so a harness and the daemon it starts cannot disagree."""
        for build_parser in (service_parser, cluster_parser,
                             standby_parser):
            parser = build_parser()
            defaults = from_args(parser.parse_args(["--pool-dir", "x"]))
            assert defaults == {row.field: row.default
                                for row in SETTINGS.values()}
            for kwargs in settings_cases():
                args = parser.parse_args(
                    ["--pool-dir", "x", *to_flags(kwargs)])
                assert from_args(args) == {**defaults, **kwargs}

    def test_only_durable_state_can_be_shipped(self):
        with pytest.raises(ValueError, match="durable"):
            TOPOLOGIES["pair"]({}, durable=False)
