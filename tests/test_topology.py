"""``repro.topology``: the one child-process spawner and the verbs the
four topologies share.

The chaos rows drive every topology end to end
(``tests/faults/test_chaos_engine.py``); what is pinned here is what a
green run never reaches: a startup wait that must end at its deadline,
and the one spelling of the daemon knobs.
"""

import time

import pytest

from repro.replication.__main__ import build_parser as standby_parser
from repro.service.__main__ import build_parser as service_parser
from repro.service.client import SyncTerpClient
from repro.topology import BANNERS, TOPOLOGIES, Proc, Settings


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


class TestSettings:
    def test_flags_and_kwargs_spell_the_same_values(self):
        settings = Settings(seed=9, session_ew_ns=80_000_000,
                            sweep_period_ns=3_000_000,
                            commit_interval_us=500)
        for parser in (service_parser(), standby_parser()):
            args = parser.parse_args(
                ["--pool-dir", "x", *settings.flags()])
            assert {
                "seed": args.seed,
                "session_ew_ns": int(args.session_ew_ms * 1e6),
                "sweep_period_ns": int(args.sweep_period_ms * 1e6),
                "session_linger_ns": int(args.resume_linger_ms * 1e6),
                "commit_interval_us": args.commit_interval_us,
            } == settings.kwargs()

    def test_only_durable_state_can_be_shipped(self):
        with pytest.raises(ValueError, match="durable"):
            TOPOLOGIES["pair"](Settings(), durable=False)
