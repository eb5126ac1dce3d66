"""What every terpd front door keeps per client connection.

The daemon (:class:`~repro.service.server.TerpService`) and the
cluster router (:class:`~repro.cluster.router.TerpRouter`) both
terminate client connections, and both do it with exactly these
pieces: the op-table check every request passes first (:func:`admit`),
the per-connection state with its response queue and flush rule
(:class:`Conn`), the shutdown that ends every serve loop instead of
leaving it to be cancelled (:func:`close_connections`), and the
session defaults both sides must agree on.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import TerpError
from repro.service import protocol
from repro.service.ops import OPS, Op
from repro.service.protocol import PROTOCOL_VERSION, WireError
from repro.service.sessions import Session

#: Default wall-clock exposure budget per session: 50ms.  Generous next
#: to the paper's 40us simulated target, but terpd enforces over real
#: client round-trips, not simulated cycles.
DEFAULT_SESSION_EW_NS = 50_000_000
#: How long a dropped session's identity lingers for resume: 2s.
DEFAULT_SESSION_LINGER_NS = 2_000_000_000
#: The arch engine's EW target, the paper's 40us (Section V).
DEFAULT_EW_TARGET_US = 40.0
#: Layout randomization, session tokens and the hash ring all draw
#: from this unless told otherwise.
DEFAULT_SEED = 2022
#: How long whoever started a daemon waits for it to come up — the
#: supervisor for a child's port, a promoter for ``promoted``, a
#: harness for the startup banner.  Generous: a durable daemon replays
#: its journal before it binds.
STARTUP_TIMEOUT_S = 30.0
#: Backpressure: responses pending past this are written mid-burst,
#: and a transport backlog past it is waited out (a peer that stops
#: reading stalls its own connection, not the daemon's memory).
DRAIN_MARK = 65536
#: Shutdown: how long closed connections get to flush to a peer that
#: is not reading before their transports are aborted.
CLOSE_GRACE_S = 1.0


def admit(request: Any, bins: protocol.BinReader, *,
          has_session: bool) -> Tuple[Op, Dict[str, Any]]:
    """Check one request against the op table — the daemon's and the
    router's shared front door — and read it by its row: ``[rid, op,
    v1, …]`` becomes the row and its args, named in ``params`` order,
    a ``null`` (not given) left out.  Every ``{"bin": n}`` value takes
    its bytes off ``bins`` before anything can refuse the request, so
    the next request in the frame reads its own."""
    if isinstance(request, dict):
        raise TerpError(f"protocol version <{PROTOCOL_VERSION} (an "
                        "object frame) unsupported; server speaks "
                        f"{PROTOCOL_VERSION}")
    if not isinstance(request, list) or len(request) < 2:
        raise WireError("request must be an array [id, op, ...]")
    values = [bins.take(protocol.bin_length(value))
              if isinstance(value, dict) else value
              for value in request[2:]]
    spec = OPS.get(request[1]) if isinstance(request[1], str) else None
    if spec is None:
        raise WireError(f"unknown op {request[1]!r}")
    if not has_session and not spec.sessionless:
        raise TerpError(f"op {spec.name!r} requires a session; "
                        "say hello first")
    if len(values) > len(spec.params):
        raise TypeError(f"op {spec.name!r} takes {len(spec.params)} "
                        f"values, got {len(values)}")
    args = {name: value for (name, _), value in zip(spec.params, values)
            if value is not None}
    if spec.bin_arg in args and not isinstance(args[spec.bin_arg], bytes):
        # Binary travels on the sidecar only: a typed refusal.
        protocol.bin_length(args[spec.bin_arg])
    return spec, args


class Conn:
    """Per-connection state: the bound session, once hello'd, and the
    responses queued for the next write.

    A serve loop answers every frame one read produced
    (:meth:`send`) and the responses leave in one write — one segment
    for a pipelined burst — when it runs out of input (:meth:`drain`);
    earlier only past ``DRAIN_MARK``, before a handler waits off the
    event loop, and on every way out of the loop (:meth:`flush`)."""

    __slots__ = ("session", "generation", "bins", "bin_out", "writer",
                 "note_flush", "out", "out_bytes")

    def __init__(self, writer: asyncio.StreamWriter,
                 note_flush: Callable[[int], None]) -> None:
        self.session: Optional[Session] = None
        #: the session's bind generation this connection owns; teardown
        #: only unbinds if no newer connection has resumed the session.
        self.generation = 0
        #: the current request frame's sidecar cursor (requests
        #: consume their binary chunks from it, in frame order).
        self.bins = protocol.BinReader(b"")
        #: binary chunks produced by the current frame's responses;
        #: joined into the response frame's sidecar.
        self.bin_out: List[bytes] = []
        self.writer = writer
        #: told each write's frame count (the wire counters).
        self.note_flush = note_flush
        #: response frames not yet handed to the transport.
        self.out: List[bytes] = []
        self.out_bytes = 0

    async def send(self, frame: bytes) -> None:
        """Queue one response frame (written with the rest of its
        burst); past ``DRAIN_MARK``, write now and wait for the peer."""
        self.out.append(frame)
        self.out_bytes += len(frame)
        if self.out_bytes > DRAIN_MARK:
            await self.drain()

    def flush(self) -> None:
        """Hand everything queued to the transport as one write."""
        if self.out:
            # Counted first: whoever reads the responses may look at
            # the counters next.
            self.note_flush(len(self.out))
            self.writer.write(b"".join(self.out))
            self.out.clear()
            self.out_bytes = 0

    async def drain(self) -> None:
        """:meth:`flush`, then wait while the peer is not reading."""
        self.flush()
        if self.writer.transport.get_write_buffer_size() > DRAIN_MARK:
            await self.writer.drain()

    async def close(self) -> None:
        """:meth:`flush`, close the socket, and wait for it to go."""
        self.flush()
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def close_connections(
        handlers: Dict[asyncio.StreamWriter, asyncio.Task]) -> None:
    """Close every client connection and wait for its serve loop.

    Each loop reads EOF and runs its own teardown, deregistering from
    ``handlers`` only as its last act — a loop already mid-teardown
    when this runs (its client hung up a moment ago) is still here to
    be waited for — so nothing is left for ``asyncio.run`` to cancel:
    on Python 3.11 a cancelled stream handler makes asyncio's own
    done-callback print a traceback.
    """
    tasks = list(handlers.values())
    for writer in list(handlers):
        writer.close()
    if not tasks:
        return
    _, stuck = await asyncio.wait(tasks, timeout=CLOSE_GRACE_S)
    if stuck:
        for writer in list(handlers):
            writer.transport.abort()
        await asyncio.wait(stuck)
