"""How a terpd process is configured and how it runs, declared once.

**Settings.**  The daemon's tuning knobs — the paper's three (§V: the
40 us EW target, the 32-entry circular buffer, the sweep period) and
the service's own five — are the rows of :data:`SETTINGS`: the
:class:`~repro.service.server.TerpService` keyword a row sets, its
flag, type, unit, floor and help text.  Everything else derives.  The
three CLIs declare the flags with :func:`add_flags` and read them back
with :func:`from_args`, the one place milliseconds become nanoseconds;
``ClusterConfig.service`` carries the keywords to every shard, standby
and router; a standby refuses a ``promote`` override that is not a
row; and a harness holding keywords spells a ``python -m`` child's
flags with :func:`to_flags`, the exact inverse of :func:`from_args`.
To add a setting: add the ``TerpService`` keyword and a row here.
The service's own defaults are declared here too, and the daemon and
the router take them from here: this module imports neither, so a
warm standby reads the table without loading a daemon.

**Serving.**  :func:`serve` is the one way a terpd process runs:
install the SIGINT/SIGTERM handlers, *then* start the node, *then*
announce readiness, wait, stop — so whoever is told a process is ready
can stop it cleanly at once.  :func:`wait_for_signal` is the same for
a node whose ``start``/``stop`` block (the standby, the supervisor).
A node is anything with ``start()``, ``stop()`` and ``bound_port``.
"""

from __future__ import annotations

import argparse
import os
import signal
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.arch.circular_buffer import NUM_ENTRIES
from repro.core.record import record
from repro.core.units import NS_PER_MS
from repro.pmo import DEFAULT_COMMIT_INTERVAL_US

#: Default wall-clock exposure budget per session: 50ms.  Generous next
#: to the paper's 40us simulated target, but terpd enforces over real
#: client round-trips, not simulated cycles.
DEFAULT_SESSION_EW_NS = 50_000_000
#: How long a dropped session's identity lingers for resume: 2s.
DEFAULT_SESSION_LINGER_NS = 2_000_000_000
#: The arch engine's EW target, the paper's 40us (Section V).
DEFAULT_EW_TARGET_US = 40.0
#: Default sweep period: 10ms, a 5x oversampling of the budget.
DEFAULT_SWEEP_PERIOD_NS = 10_000_000
#: Layout randomization, session tokens and the hash ring all draw
#: from this unless told otherwise.
DEFAULT_SEED = 2022
#: How long whoever started a daemon waits for it to come up — the
#: supervisor for a child's port, a promoter for ``promoted``, a
#: harness for the startup banner.  Generous: a durable daemon replays
#: its journal before it binds.
STARTUP_TIMEOUT_S = 30.0


@record(frozen=True)
class Setting:
    #: the ``TerpService`` keyword this row sets
    field: str
    flag: str
    #: the flag's argparse type (``int`` / ``float``); a ``bool`` row
    #: is a ``store_true`` flag that turns its (default-on) field *off*
    type: Callable[[Any], Any]
    #: in the field's units
    default: Any
    help: str
    #: field units per flag unit: ``--session-ew-ms 5`` is 5 000 000 ns
    scale: int = 1
    #: the least value a flag can set; anything lower is raised to it
    floor: Optional[int] = None


SETTINGS: Dict[str, Setting] = {row.field: row for row in (
    Setting("ew_target_us", "--ew-target-us", float,
            DEFAULT_EW_TARGET_US,
            "arch engine EW target in us, the window-combining "
            "horizon"),
    Setting("session_ew_ns", "--session-ew-ms", float,
            DEFAULT_SESSION_EW_NS,
            "wall-clock exposure budget per session in ms; the "
            "sweeper force-detaches holdings older than this",
            scale=NS_PER_MS),
    Setting("sweep_period_ns", "--sweep-period-ms", float,
            DEFAULT_SWEEP_PERIOD_NS, "sweeper period in ms",
            scale=NS_PER_MS, floor=1),
    Setting("session_linger_ns", "--resume-linger-ms", float,
            DEFAULT_SESSION_LINGER_NS,
            "how long a dropped session's identity lingers for "
            "token-based resume, in ms", scale=NS_PER_MS, floor=0),
    Setting("cb_capacity", "--cb-capacity", int, NUM_ENTRIES,
            "circular-buffer entries"),
    Setting("commit_interval_us", "--commit-interval-us", int,
            DEFAULT_COMMIT_INTERVAL_US,
            "group-commit window in us: how long the flusher thread "
            "waits for more psyncs to merge into one journal fsync; "
            "0 commits each batch as soon as the flusher is free",
            floor=0),
    Setting("seed", "--seed", int, DEFAULT_SEED,
            "layout-randomization seed"),
    Setting("obs_enabled", "--no-obs", bool, True,
            "run with observability in no-op mode (every recorder "
            "short-circuits; the overhead-measurement baseline)"),
)}


def add_flags(parser: argparse.ArgumentParser, note: str = "") -> None:
    """Declare every row's flag on ``parser``; ``note`` opens each help
    string (whose process the settings reach, when not the CLI's own)."""
    for row in SETTINGS.values():
        if row.type is bool:
            parser.add_argument(row.flag, action="store_true",
                                help=note + row.help)
        else:
            parser.add_argument(
                row.flag, type=row.type,
                default=row.type(row.default / row.scale),
                help=f"{note}{row.help} (default: %(default)s)")


def from_args(args: argparse.Namespace) -> Dict[str, Any]:
    """The ``TerpService`` keywords a parsed command line spells."""
    kwargs: Dict[str, Any] = {}
    for row in SETTINGS.values():
        value = getattr(args, row.flag[2:].replace("-", "_"))
        if row.type is bool:
            value = not value
        elif row.scale != 1:
            # round, not int: 1.001 ms is 1 001 000 ns, not 1 000 999.
            value = round(value * row.scale)
        if row.floor is not None:
            value = max(row.floor, value)
        kwargs[row.field] = value
    return kwargs


def to_flags(kwargs: Dict[str, Any]) -> List[str]:
    """``kwargs`` (any subset of the rows) as command-line arguments:
    ``from_args(parser.parse_args(to_flags(kw)))`` gives ``kw`` back,
    over the rest's defaults."""
    argv: List[str] = []
    for field, value in kwargs.items():
        row = SETTINGS[field]
        if row.type is bool:
            argv += [] if value else [row.flag]
        else:
            argv += [row.flag, str(value / row.scale
                                   if row.scale != 1 else value)]
    return argv


@contextmanager
def profiled(path: Optional[str]) -> Iterator[None]:
    """Run the block under cProfile and dump the stats to ``path``
    (inspect with ``python -m pstats``); no path, no profiler."""
    if not path:
        yield
        return
    import cProfile
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(path)


_SIGNALS = (signal.SIGINT, signal.SIGTERM)


async def serve(node: Any, *, ready: Callable[[int], None],
                profile: Optional[str] = None) -> None:
    """Run ``node`` (a service or a router) on the running
    :mod:`~repro.service.reactor` loop until SIGINT/SIGTERM.

    The handlers go in before the node starts and ``ready(port)`` is
    called after it has: print the banner there, or send the port up
    the supervisor's pipe.  A handler writes a byte to a pipe the loop
    waits on, as in :func:`wait_for_signal`, and takes no lock.  After
    the first signal both are ignored until the process ends: a
    cluster shard takes the group's SIGTERM and then the supervisor's
    own, whose default action would kill the drain (rc -15).  A harness
    escalates to SIGKILL.
    """
    # Its caller runs the loop, so the reactor is loaded already; a
    # standby, which never serves this way, loads none.
    from repro.service import reactor

    wake_r, wake_w = os.pipe()

    def first_signal(*_: Any) -> None:
        for sig in _SIGNALS:
            signal.signal(sig, signal.SIG_IGN)
        os.write(wake_w, b"\0")

    for sig in _SIGNALS:
        signal.signal(sig, first_signal)
    with profiled(profile):
        await node.start()
        try:
            ready(node.bound_port)
            await reactor.readable(wake_r)
        finally:
            await node.stop()


def wait_for_signal(node: Any, *, ready: Callable[[int], None]) -> None:
    """:func:`serve` for a node whose ``start`` and ``stop`` block:
    the calling (main) thread parks reading a pipe until a handler
    writes it a byte.

    The handler runs on the main thread between two of its bytecodes,
    so it may take no lock the wait holds: ``Event.set`` from a handler
    that lands inside ``Event.wait`` takes the lock ``wait`` holds, and
    the process hangs past every later SIGTERM.  A pipe's ``read``
    holds none.  Only this process writes: the supervisor's forked
    shards and standbys inherit the handler until they install theirs,
    and share the pipe, which stays open as long as the handler does.
    """
    wake_r, wake_w = os.pipe()
    owner = os.getpid()

    def first_signal(*_: Any) -> None:
        if os.getpid() != owner:
            return
        for sig in _SIGNALS:
            signal.signal(sig, signal.SIG_IGN)
        os.write(wake_w, b"\0")

    for sig in _SIGNALS:
        signal.signal(sig, first_signal)
    node.start()
    try:
        ready(node.bound_port)
        os.read(wake_r, 1)
    finally:
        node.stop()
