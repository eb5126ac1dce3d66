"""Every terpd front door: how a node meets its client connections.

The daemon (:class:`~repro.service.server.TerpService`) and the
cluster router (:class:`~repro.cluster.router.TerpRouter`) both
terminate client connections, and both do it with exactly these
pieces: the listening sockets and the one read loop per connection
(:class:`FrontDoor`, which each side hands only its per-burst handler
and its teardown), the op-table check every request passes first
(:func:`admit`), and the per-connection state with its response
queue and flush rule (:class:`Conn`).  The session defaults both sides
must agree on are :mod:`repro.service.launch`'s.
"""

from __future__ import annotations

import asyncio
from typing import (
    Any, Awaitable, Callable, Dict, List, Optional, Tuple, Union)

from repro.core.errors import TerpError
from repro.service import protocol
from repro.service.ops import OPS, Op, op_row
from repro.service.protocol import PROTOCOL_VERSION, WireError
from repro.service.sessions import Session

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
    router's shared front door — and read it by its row: ``[rid,
    op_index, v1, …]`` becomes the row and its args, named in
    ``params`` order, a ``null`` (not given) or a value left off
    standing for its row default, if it has one, and left out if not.
    The row's ``bin_arg`` slot holds a byte count, whose bytes are
    taken off ``bins`` before anything else can refuse the request, so
    the next request in the frame reads its own; a request whose count
    cannot be read — no row, or not a count — loses ``bins`` for the
    rest of the frame."""
    spec = op_row(request[1]) if isinstance(request, list) and \
        len(request) > 1 else None
    if spec is None:
        bins.lose("an earlier request had no row to find its byte "
                  "count by")
        if isinstance(request, dict):
            raise TerpError(f"protocol version <{PROTOCOL_VERSION} (an "
                            "object frame) unsupported; server speaks "
                            f"{PROTOCOL_VERSION}")
        if not isinstance(request, list) or len(request) < 2:
            raise WireError("request must be an array [id, op, ...]")
        op, values = request[1], request[2:]
        if isinstance(op, str) and op in OPS:
            # An op sent by name: revision 4 and before.  A hello
            # says which.
            offered = values[0] if op == "hello" and values else \
                f"<{PROTOCOL_VERSION} (an op sent by name)"
            raise TerpError(f"protocol version {offered} unsupported; "
                            f"server speaks {PROTOCOL_VERSION}")
        raise WireError(f"unknown op {op!r}")
    values = request[2:]
    at = spec.bin_param
    if at is not None:
        try:
            values[at] = bins.take(protocol.bin_length(
                values[at] if at < len(values) else None))
        except WireError:
            bins.lose(f"an earlier {spec.name!r} took no bytes")
            # Without a session, that is what it is refused for.
            if has_session or spec.sessionless:
                raise
    if not has_session and not spec.sessionless:
        raise TerpError(f"op {spec.name!r} requires a session; "
                        "say hello first")
    if len(values) > len(spec.params):
        raise TypeError(f"op {spec.name!r} takes {len(spec.params)} "
                        f"values, got {len(values)}")
    args = {name: value for (name, _), value in zip(spec.params, values)
            if value is not None}
    for name, default in spec.defaults:
        args.setdefault(name, default)
    return spec, args


class Conn:
    """Per-connection state: the bound session, once hello'd, and the
    responses queued for the next write.

    A serve loop answers every frame one read produced
    (:meth:`send`) and the responses leave in one write — one segment
    for a pipelined burst — when it runs out of input (:meth:`drain`);
    earlier only past ``DRAIN_MARK``, before a handler waits off the
    event loop, ahead of a streamed frame (:meth:`stream`), and on
    every way out of the loop (:meth:`flush`)."""

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

    async def send(self, frame: Union[bytes, protocol.StreamedFrame]
                   ) -> None:
        """Queue one response frame (written with the rest of its
        burst); past ``DRAIN_MARK``, write now and wait for the peer.
        A streamed frame is written at once (:meth:`stream`)."""
        if isinstance(frame, protocol.StreamedFrame):
            await self.stream(frame)
            return
        self.out.append(frame)
        self.out_bytes += len(frame)
        if self.out_bytes > DRAIN_MARK:
            await self.drain()

    async def stream(self, frame: protocol.StreamedFrame) -> None:
        """Write a frame a chunk (``READ_BYTES``) at a time, as it is
        made, after what the burst had already queued; wait for the
        peer whenever the transport holds more than ``DRAIN_MARK``."""
        self.flush()
        transport = self.writer.transport
        frames = 1                       # counted with its first write
        for chunk in frame.chunks(protocol.READ_BYTES):
            if transport.is_closing():
                # The peer left: the rest is not made (asyncio would
                # log each write to a lost connection).
                raise ConnectionResetError("peer gone mid-frame")
            self.note_flush(frames)
            frames = 0
            self.writer.write(chunk)
            del chunk                    # not held while the next is made
            if transport.get_write_buffer_size() > DRAIN_MARK:
                await self.writer.drain()

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


class FrontDoor:
    """A node's listening sockets and its one read loop per client
    connection.  The daemon and the router supply only
    ``serve_burst(conn, frames)`` — answer the frames one read
    produced; False severs the connection — and ``teardown(conn)``."""

    def __init__(self, serve_burst: Callable[..., Awaitable[bool]],
                 teardown: Callable[[Conn], Awaitable[None]],
                 note_flush: Callable[[int], None]) -> None:
        self._serve_burst = serve_burst
        self._teardown = teardown
        self._note_flush = note_flush
        self._servers: List[asyncio.AbstractServer] = []
        #: open client connections and the task serving each.
        self._writers: Dict[asyncio.StreamWriter, asyncio.Task] = {}

    async def listen(self, host: str, port: Optional[int],
                     unix_path: Optional[str] = None, *,
                     reuse_port: bool = False) -> Optional[int]:
        """Bind the endpoints given; returns the TCP port bound.
        ``reuse_port``: several routers share one front port
        (``SO_REUSEPORT``: the kernel spreads the accepts)."""
        bound = None
        if port is not None:
            server = await asyncio.start_server(
                self._serve, host, port, reuse_port=reuse_port)
            self._servers.append(server)
            bound = server.sockets[0].getsockname()[1]
        if unix_path is not None:
            self._servers.append(await asyncio.start_unix_server(
                self._serve, path=unix_path))
        return bound

    def stop_listening(self) -> None:
        for server in self._servers:
            server.close()

    def abort(self) -> None:
        """Like ``kill -9``: stop accepting, reset every connection."""
        self.stop_listening()
        for writer in list(self._writers):
            writer.transport.abort()

    async def close(self) -> None:
        """Close every client connection, wait for its serve loop, then
        for the listeners.

        Each loop reads EOF and runs its own teardown, deregistering
        only as its last act — a loop already mid-teardown when this
        runs (its client hung up a moment ago) is still here to be
        waited for — so nothing is left for ``asyncio.run`` to cancel:
        on Python 3.11 a cancelled stream handler makes asyncio's own
        done-callback print a traceback.
        """
        tasks = list(self._writers.values())
        for writer in list(self._writers):
            writer.close()
        if tasks:
            _, stuck = await asyncio.wait(tasks, timeout=CLOSE_GRACE_S)
            if stuck:
                for writer in list(self._writers):
                    writer.transport.abort()
                await asyncio.wait(stuck)
        # Only now: from Python 3.12 a server is not closed until its
        # last connection is.
        for server in self._servers:
            await server.wait_closed()

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        conn = Conn(writer, self._note_flush)
        writer.transport.max_size = protocol.READ_BYTES
        self._writers[writer] = asyncio.current_task()
        splitter = protocol.FrameSplitter()
        try:
            while True:
                data = await reader.read(protocol.READ_BYTES)
                if not data:
                    splitter.eof()
                    break
                if not await self._serve_burst(conn, splitter.feed(data)):
                    break
                # Out of input: the burst's responses leave together.
                await conn.drain()
        except (WireError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                # Whatever ended the loop, the responses to the frames
                # served before it still go out ahead of the close.
                conn.flush()
                await self._teardown(conn)
                await conn.close()
            finally:
                # Deregistered last: until here ``close`` can still
                # find this handler and wait for it.
                self._writers.pop(writer, None)
