"""A deadline for every tier-1 test: it fails, it never hangs the suite.

Each phase of a test under ``tests/`` (setup, call, teardown) gets
``DEADLINE_S`` seconds of wall time.  At the deadline ``faulthandler``
writes every thread's stack to the test's captured stderr, and a
``SIGALRM`` fails the test where it stands; the session goes on with
the next one.  A test that needs longer says so, with a reason::

    @pytest.mark.deadline(120, reason="enumerates every interleaving")

The paper benches and terpbench's self-test under ``benchmarks/`` run
for up to a minute each and carry no deadline unless marked.

Stdlib only: ``signal.setitimer`` and ``faulthandler``.  The alarm
interrupts the test's own (main) thread; a child process it starts is
bounded by its harness (``repro.topology.Proc`` waits a deadline for
the banner and SIGKILLs a child that outlives ``stop``).
"""

import faulthandler
import pathlib
import signal
import sys

import pytest

#: Seconds each phase of a test may take.  The slowest tier-1 test
#: takes about 5 s on a shared 2-vCPU host.
DEADLINE_S = 30.0
#: The stacks are dumped this long before the alarm fails the test, so
#: they show where it was stuck rather than the failure being raised.
DUMP_LEAD_S = 0.1
#: Where ``DEADLINE_S`` applies unmarked: tier-1.
TIER1 = pathlib.Path(__file__).resolve().parent / "tests"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "deadline(seconds, reason): this test's phases may "
        f"each take up to ``seconds`` instead of {DEADLINE_S:g}")


def _deadline(item):
    marker = item.get_closest_marker("deadline")
    if marker is None:
        return DEADLINE_S if TIER1 in item.path.resolve().parents \
            else None
    if not marker.kwargs.get("reason"):
        raise pytest.UsageError(
            f"{item.nodeid}: a deadline marker needs a reason")
    return float(marker.args[0])


def _bounded(item, phase):
    seconds = _deadline(item)
    if seconds is None:
        yield
        return

    def expired(signum, frame):
        pytest.fail(f"{phase} ran past its {seconds:g} s deadline "
                    "(every thread's stack is on stderr)")

    previous = signal.signal(signal.SIGALRM, expired)
    faulthandler.dump_traceback_later(seconds, file=sys.__stderr__)
    signal.setitimer(signal.ITIMER_REAL, seconds + DUMP_LEAD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        faulthandler.cancel_dump_traceback_later()
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _bounded(item, "setup")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _bounded(item, "the test")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    yield from _bounded(item, "teardown")
