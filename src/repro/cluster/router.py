"""The cluster front-end: one wire endpoint over N terpd shards.

:class:`TerpRouter` terminates client sessions (hello, resume tokens
— through the same :meth:`~repro.service.sessions.SessionRegistry
.hello` the daemon uses) itself and forwards everything else to the
shard that owns the PMO being operated on.  Which rule applies to an
op is its ``route`` key in the op table (:mod:`repro.service.ops`),
never a list kept here:

* ``name`` ops (create/open/attach/psync/…) route by the
  consistent-hash ring over the PMO name;
* ``oid`` ops (read/write/pfree/…) route arithmetically — shard ``i``
  of ``N`` only ever mints pmo_ids in the residue class ``i+1 (mod
  N)`` (see :meth:`PmoManager.set_id_namespace`), so the Oid's pool
  id alone names the owner, with zero routing state;
* ``fanout`` ops (ping/metrics/trace/prometheus/repl_status) go to
  every shard and are merged by the ``_fanout_<op>`` method (see
  :mod:`repro.cluster.aggregate`);
* ``session`` ops (hello/goodbye) are answered by the router itself;
* **batch frames** are split per-item across shards (each item's
  slice of the binary sidecar travels with it), the sub-batches run
  concurrently, and the responses are re-merged in client item order.

The relay is byte-transparent on the fast path: a single op's request
body and sidecar are forwarded verbatim and the shard's response
frame is returned verbatim.

Failure model: a shard dying mid-request aborts the *client's*
transport, which lands the client on the typed
:class:`~repro.service.client.ConnectionLost` retry path it already
has — reconnect, resume the router session by token, re-send the same
request id.  The router re-dials the restarted shard and resumes its
upstream session with the stored token, so a durable shard's replay
cache still de-duplicates the retried op.
"""

from __future__ import annotations

import asyncio
import time
from typing import (
    Any, Awaitable, Callable, Dict, Iterator, List, Optional, Tuple)

from repro.core.errors import TerpError
from repro.cluster.aggregate import (
    aggregate_metrics, label_prometheus)
from repro.cluster.ring import HashRing
from repro.obs.registry import MetricsRegistry
from repro.pmo.object_id import OFFSET_BITS
from repro.service import protocol
from repro.service.client import (
    OPEN, RECV, SEND, ConnectionLost, RemoteError, TerpClient)
from repro.service.conn import Conn, FrontDoor, admit
from repro.service.launch import (
    DEFAULT_SEED, DEFAULT_SESSION_EW_NS, DEFAULT_SESSION_LINGER_NS)
from repro.service.metrics import WireCounters
from repro.service.ops import FANOUT, NAME, OID, SESSION, Op, trace_limit
from repro.service.sessions import SessionRegistry


class UpstreamLost(Exception):
    """A shard connection died mid-request; the client must retry."""


class Upstream(TerpClient):
    """One router->shard connection: the asyncio client — so hello,
    resume after a shard restart and the fresh-session fallback are
    the client core's, and the shard-side identity lives on this
    object across reconnects — plus a verbatim frame relay.

    One request at a time (the client's lock): batch fan-out
    parallelism comes from using *different* connections per shard.
    """

    def __init__(self, shard: int, addr: Tuple[str, int],
                 **hello: Any) -> None:
        super().__init__(host=addr[0], port=addr[1], **hello)
        self.shard = shard

    def next_id(self) -> int:
        # The router's *own* requests count down from -1: client rids
        # are positive, and the shard's per-session replay cache is
        # keyed by rid — a router-originated metrics poll must never
        # collide with a relayed client op (or with a previous router
        # request) and get the wrong cached response replayed at it.
        self._next_id -= 1
        return self._next_id

    @property
    def alive(self) -> bool:
        return self._writer is not None

    async def dial(self, *, hello: bool) -> "Upstream":
        """(Re)open the connection; with ``hello``, also establish
        (resume, else replace) the shard-side session."""
        try:
            await (self.connect() if hello else self._do(OPEN))
        except (OSError, TerpError) as exc:
            await self.close()
            raise UpstreamLost(
                f"shard {self.shard} unreachable: {exc}") from None
        return self

    async def relay(self, frames: List[bytes], deliver: Callable[
            [bytes, bytes], Awaitable[None]]) -> None:
        """Send a run of pre-encoded request frames as one write —
        one round trip for the run — and ``deliver`` each response's
        ``(body, sidecar)`` as it arrives."""
        async with self._lock:
            try:
                await self._do(SEND, b"".join(frames))
                for _ in frames:
                    got = await self._do(RECV)
                    if got is None:
                        raise UpstreamLost(f"shard {self.shard} closed "
                                           "the connection")
                    await deliver(*got)
            except ConnectionLost as exc:
                raise UpstreamLost(
                    f"shard {self.shard} dropped: {exc}") from None
            except BaseException:
                # Responses left unread (the shard hung up, the client
                # went away mid-run) would answer the next relay.
                await self.close()
                raise

    async def ask(self, op: str, args: Dict[str, Any]
                  ) -> Tuple[Optional[Any], List[dict]]:
        """One of the router's *own* requests (goodbye, a fan-out
        poll): ``(result, events)``; an error response is ``None``."""
        try:
            result = await self._call(op, args)
        except ConnectionLost as exc:
            raise UpstreamLost(
                f"shard {self.shard} dropped: {exc}") from None
        except RemoteError:
            result = None
        events, self.events = self.events, []
        return result, events


async def _close_all(upstreams: Dict[int, Upstream]) -> None:
    for up in upstreams.values():
        await up.close()


def _reply(rid: Any, op: str, result: Any,
           events: Optional[List[dict]] = None) -> bytes:
    return protocol.encode_body(protocol.response(rid, op, result, events))


class TerpRouter:
    """The session-pinning, batch-splitting front-end."""

    def __init__(self, *, shard_addrs: List[Tuple[str, int]],
                 host: str = "127.0.0.1", port: Optional[int] = 0,
                 reuse_port: bool = False,
                 session_ew_ns: int = DEFAULT_SESSION_EW_NS,
                 session_linger_ns: int = DEFAULT_SESSION_LINGER_NS,
                 seed: int = DEFAULT_SEED) -> None:
        self.shard_addrs = list(shard_addrs)
        self.shard_count = len(self.shard_addrs)
        if not self.shard_count:
            raise TerpError("router needs at least one shard")
        self.host = host
        self.port = port
        self.reuse_port = reuse_port
        self.session_linger_ns = session_linger_ns
        self.ring = HashRing(range(self.shard_count), seed=seed)
        #: Router-local sessions: the client-facing identity.  The
        #: budget the router reports is what the shards enforce — the
        #: supervisor configures both from the same number, and the
        #: router passes each session's clamped budget in its
        #: upstream hellos.
        self.registry = SessionRegistry(
            default_ew_budget_ns=session_ew_ns, token_seed=seed)
        #: per client session: its shard connections by shard index.
        #: A closed one stays — it remembers the shard session to
        #: resume once the client (or the shard) comes back.
        self._upstreams: Dict[int, Dict[int, Upstream]] = {}
        #: sessionless connections for observability fan-out, one per
        #: shard, dialed lazily and re-dialed after a shard restart.
        self._admin: Dict[int, Upstream] = {}
        #: The router's own series: the client-facing hop's wire
        #: counters (each shard counts its hop in its own registry).
        self.metrics = MetricsRegistry()
        self.wire = WireCounters(self.metrics, {"hop": "router"})
        self.front = FrontDoor(self._serve_burst, self._teardown,
                               self.wire.note_flush)
        self._purge_task: Optional[asyncio.Task] = None
        self._t0 = time.monotonic_ns()
        self.bound_port: Optional[int] = None

    def now_ns(self) -> int:
        return time.monotonic_ns() - self._t0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self.bound_port = await self.front.listen(
            self.host, self.port, reuse_port=self.reuse_port)
        self._purge_task = asyncio.create_task(self._purge_loop())

    async def stop(self) -> None:
        if self._purge_task is not None:
            self._purge_task.cancel()
            try:
                await self._purge_task
            except asyncio.CancelledError:
                pass
        self.front.stop_listening()
        for upstreams in self._upstreams.values():
            await _close_all(upstreams)
        for up in self._admin.values():
            await up.close()
        await self.front.close()

    async def _purge_loop(self) -> None:
        """Expire lingering (dropped, never resumed) sessions."""
        while True:
            await asyncio.sleep(0.1)
            for session in self.registry.purge(self.now_ns(),
                                               self.session_linger_ns):
                await _close_all(self._upstreams.pop(
                    session.session_id, {}))

    # -- connection handling ----------------------------------------------

    async def _serve_burst(self, conn: Conn,
                           frames: Iterator[Tuple[bytes, bytes]]) -> bool:
        """Answer the frames one read produced, gathering runs: the
        consecutive single-op frames one shard owns go upstream as one
        write (a pipelined burst costs one shard round trip).  Anything
        else ends the run, so responses queue in request order."""
        run: List[bytes] = []
        shard = -1
        try:
            for body, sidecar in frames:
                payload = protocol.decode_frame(body)
                batch = protocol.is_batch(payload)
                owner = None if batch \
                    else self._relay_shard(conn, payload, sidecar)
                if run and owner != shard:
                    await self._relay_run(conn, shard, run)
                    run = []
                if owner is not None:
                    shard = owner
                    run.append(protocol.frame_from_body(
                        body, sidecar or None))
                elif batch:
                    await conn.send(await self._handle_batch(
                        conn, payload, sidecar))
                else:
                    await conn.send(await self._handle_local(
                        conn, payload, sidecar))
            if run:
                await self._relay_run(conn, shard, run)
        except UpstreamLost:
            # Map shard death onto the client's typed retry path: an
            # aborted transport is a ConnectionLost, and the retried
            # request (same rid, resumed session) re-routes to the
            # restarted shard.
            conn.flush()
            conn.writer.transport.abort()
            return False
        return True

    async def _teardown(self, conn: Conn) -> None:
        session = self.registry.drop(conn, self.now_ns())
        if session is not None:
            # Drop the upstream connections *now*: each shard
            # force-releases this session's windows on teardown
            # ("connection lost"), exactly as a direct client's
            # death would.  Identity lingers for a token resume.
            await _close_all(
                self._upstreams.get(session.session_id, {}))

    # -- routing -----------------------------------------------------------

    def _home_shard(self, conn: Conn) -> int:
        if conn.session is not None:
            return self.ring.owner(
                f"session:{conn.session.session_id}")
        return 0

    def _route(self, spec: Op, args: Dict[str, Any],
               conn: Conn) -> int:
        if spec.route == NAME:
            name = args.get("name")
            if isinstance(name, str):
                return self.ring.owner(name)
        elif spec.route == OID:
            oid = args.get("oid")
            if isinstance(oid, (int, float)):
                pool_id = int(oid) >> OFFSET_BITS
                if pool_id >= 1:
                    return (pool_id - 1) % self.shard_count
        # Unroutable (malformed args, null oid): any shard will
        # produce the same typed error; keep it session-sticky.
        return self._home_shard(conn)

    async def _upstream(self, conn: Conn, shard: int) -> Upstream:
        session = conn.session
        assert session is not None
        upstreams = self._upstreams[session.session_id]
        up = upstreams.get(shard)
        if up is None:
            up = upstreams[shard] = Upstream(
                shard, self.shard_addrs[shard], user=session.user,
                ew_budget_us=session.ew_budget_ns / 1_000)
        # A dead connection (its shard restarted) resumes the shard
        # session it remembers; if the shard came back cold, it falls
        # back to a fresh one and replay de-duplication is lost for
        # that shard, exactly as for a direct client.
        return up if up.alive else await up.dial(hello=True)

    async def _admin_conn(self, shard: int) -> Upstream:
        up = self._admin.get(shard)
        if up is None:
            up = self._admin[shard] = Upstream(
                shard, self.shard_addrs[shard])
        return up if up.alive else await up.dial(hello=False)

    # -- single-op path ----------------------------------------------------

    def _relay_shard(self, conn: Conn, payload: Any,
                     sidecar: bytes) -> Optional[int]:
        """The shard a single-op frame is relayed to; ``None`` for
        what the router answers itself (session ops, fan-outs,
        refusals)."""
        try:
            spec, args = admit(payload, protocol.BinReader(sidecar),
                               has_session=conn.session is not None)
        except (TerpError, TypeError):
            return None
        if spec.route in (SESSION, FANOUT):
            return None
        return self._route(spec, args, conn)

    async def _relay_run(self, conn: Conn, shard: int,
                         run: List[bytes]) -> None:
        """The relay fast path: the owning shard sees the client's
        exact bytes and its responses travel back untouched."""
        up = await self._upstream(conn, shard)
        await up.relay(run, lambda body, sidecar: conn.send(
            protocol.frame_from_body(body, sidecar or None)))

    async def _handle_local(self, conn: Conn, payload: Any,
                            sidecar: bytes) -> bytes:
        rid, _ = protocol.head(payload)
        try:
            spec, args = admit(payload, protocol.BinReader(sidecar),
                               has_session=conn.session is not None)
            if spec.route == SESSION:
                result = await getattr(self, f"_op_{spec.name}")(
                    conn, spec, args)
                return protocol.frame_from_body(
                    _reply(rid, spec.name, result))
            result, events = await getattr(
                self, f"_fanout_{spec.name}")(conn, spec, args)
            return protocol.frame_from_body(
                _reply(rid, spec.name, result, events))
        except (TerpError, KeyError, TypeError, ValueError) as exc:
            return protocol.frame_from_body(protocol.refusal(rid, exc))

    async def _op_hello(self, conn: Conn, spec: Op,
                        args: Dict[str, Any]) -> Dict[str, Any]:
        result = self.registry.hello(args, conn)
        self._upstreams.setdefault(conn.session.session_id, {})
        return result

    async def _op_goodbye(self, conn: Conn, spec: Op,
                          args: Dict[str, Any]) -> Dict[str, Any]:
        results, _ = await self._poll(conn, spec, args, own_only=True)
        session = conn.session
        await _close_all(self._upstreams.pop(session.session_id, {}))
        self.registry.end(session, self.now_ns(), reason="goodbye",
                          conn=conn)
        return {"released": sum(int(result.get("released", 0))
                                for _, result in results)}

    # -- fan-out path ------------------------------------------------------

    async def _poll(self, conn: Conn, spec: Op,
                    args: Dict[str, Any], *, own_only: bool = False
                    ) -> Tuple[List[Tuple[int, Any]], List[dict]]:
        """Ask every shard: ``([(shard, result)], pending events)``.

        One connection per shard: the session's own where it has one
        (so per-session metrics and pending events ride along), a
        shared sessionless one otherwise — or, with ``own_only``, the
        session's own and nothing else.  Shards that are unreachable,
        die mid-poll or answer an error are left out — a restarting
        shard must not fail a survivor's metrics poll.
        """
        own = self._upstreams.get(conn.session.session_id, {}) \
            if conn.session is not None else {}

        async def one(shard: int):
            up = own.get(shard)
            try:
                if up is None or not up.alive:
                    if own_only:
                        return None
                    up = await self._admin_conn(shard)
                return (shard, *await up.ask(spec.name, args))
            except UpstreamLost:
                return None
        answers = [a for a in await asyncio.gather(
            *(one(shard) for shard in range(self.shard_count))) if a]
        return ([(shard, result) for shard, result, _ in answers
                 if result is not None],
                [event for *_, events in answers for event in events])

    async def _fanout_ping(self, conn: Conn, spec: Op,
                           args: Dict[str, Any]):
        # Ping only needs the session's own shards: that is where its
        # pending events (forced detaches) queue, and where clock
        # movement matters to it.  A session-less ping answers locally.
        results, events = await self._poll(conn, spec, args,
                                           own_only=True)
        now = max((result.get("now_ns", 0) for _, result in results),
                  default=self.now_ns())
        return {"now_ns": now, "sessions": len(self.registry)}, events

    async def _fanout_metrics(self, conn: Conn, spec: Op,
                              args: Dict[str, Any]):
        results, events = await self._poll(conn, spec,
                                           dict(args, raw=True))
        for shard, report in results:
            report.setdefault("shard", shard)
        merged = aggregate_metrics([report for _, report in results],
                                   sessions=len(self.registry))
        merged["cluster"]["unreachable"] = \
            self.shard_count - len(results)
        merged["cluster"]["router"] = self.wire.to_dict()
        return merged, events

    async def _fanout_trace(self, conn: Conn, spec: Op,
                            args: Dict[str, Any]):
        limit = trace_limit(args)
        results, events = await self._poll(conn, spec, args)
        spans: List[dict] = []
        audit: List[dict] = []
        open_windows: List[dict] = []
        now: Dict[int, Any] = {}
        for shard, result in results:
            now[shard] = result.get("now_ns") or 0
            spans.extend(result.get("spans") or [])
            for event in result.get("audit") or []:
                event["shard"] = shard
                audit.append(event)
            for window in result.get("open_windows") or []:
                window["shard"] = shard
                open_windows.append(window)
        # The newest ``limit`` of the whole service, as one daemon's.
        # An event's ``at_ns`` is on its shard's exposure clock, whose
        # origin is the shard's own (a restarted memory shard counts
        # from its restart): events are ordered by age as each shard
        # answered (its answer's ``now_ns``).  Spans are timed on the
        # host's monotonic clock, which every shard shares.
        audit.sort(key=lambda e: e.get("at_ns", 0) - now[e["shard"]])
        spans.sort(key=lambda s: s.get("end_ns", 0))
        return {"spans": spans[max(0, len(spans) - limit):],
                "audit": audit[max(0, len(audit) - limit):],
                "open_windows": open_windows,
                "now_ns": max(now.values(), default=self.now_ns())}, \
            events

    async def _fanout_prometheus(self, conn: Conn, spec: Op,
                                 args: Dict[str, Any]):
        results, events = await self._poll(conn, spec, args)
        return {"text": "".join(
            label_prometheus(result.get("text", ""), shard)
            for shard, result in results)
            + self.metrics.prometheus_text()}, events

    async def _fanout_repl_status(self, conn: Conn, spec: Op,
                                  args: Dict[str, Any]):
        """Replication health per shard: each shard ships to its own
        standby, so the statuses are kept apart, never summed."""
        results, events = await self._poll(conn, spec, args)
        shards = {str(shard): status for shard, status in results}
        return {"enabled": any(status.get("enabled")
                               for status in shards.values()),
                "shards": shards,
                "unreachable": self.shard_count - len(shards)}, events

    # -- batch path --------------------------------------------------------

    async def _handle_batch(self, conn: Conn, items: List[Any],
                            sidecar: bytes) -> bytes:
        """Split per owning shard, run concurrently, merge in order.

        Each item keeps its slice of the combined request sidecar (in
        item order, the batch contract) and contributes its
        response chunks to the combined response sidecar, also in
        item order.  A shard error stays isolated to its items'
        slots; a shard *death* aborts the whole client connection
        (the retry re-splits identically).
        """
        bins = protocol.BinReader(sidecar)
        # parts[i] is either pre-encoded response bytes (the router's
        # own refusals) or None until the owning shard's sub-batch
        # answers.
        parts: List[Any] = [None] * len(items)
        chunks: List[bytes] = [b""] * len(items)
        by_shard: Dict[int, List[Tuple[int, Op, Any, bytes]]] = {}
        for index, item in enumerate(items):
            start = len(sidecar) - bins.remaining
            try:
                # Takes the item's bytes even if it is then refused.
                spec, args = admit(
                    item, bins, has_session=conn.session is not None)
                if spec.route == SESSION:
                    raise TerpError(f"op {spec.name!r} must be sent "
                                    "standalone, not in a batch")
                if conn.session is None:
                    raise TerpError(f"op {spec.name!r} requires a "
                                    "session; say hello first")
            except (TerpError, TypeError) as exc:
                parts[index] = protocol.refusal(protocol.head(item)[0],
                                                exc)
                continue
            take = sidecar[start:len(sidecar) - bins.remaining]
            # Fan-out ops inside a batch are pinned to the session's
            # home shard: a batched ping is a liveness probe, not a
            # cluster census.
            shard = self._home_shard(conn) if spec.route == FANOUT \
                else self._route(spec, args, conn)
            by_shard.setdefault(shard, []).append(
                (index, spec, item, take))

        async def run_shard(shard: int,
                            grouped: List[Tuple[int, Op, Any, bytes]]):
            async def merge(rbody: bytes, rside: bytes) -> None:
                responses = protocol.decode_frame(rbody)
                if not isinstance(responses, list) or \
                        len(responses) != len(grouped):
                    raise UpstreamLost(
                        f"shard {shard} answered a batch of "
                        f"{len(grouped)} with "
                        f"{len(responses) if isinstance(responses, list) else 1}")
                reply_bins = protocol.BinReader(rside)
                for (index, spec, _, _), response in zip(grouped,
                                                         responses):
                    # The item's row finds its result's byte count.
                    _, n = protocol.bin_result(spec, response)
                    if n:
                        chunks[index] = reply_bins.take(n)
                    parts[index] = protocol.encode_body(response)

            up = await self._upstream(conn, shard)
            await up.relay([protocol.frame_from_body(
                protocol.encode_body([item for *_, item, _ in grouped]),
                b"".join(chunk for *_, chunk in grouped) or None)],
                merge)

        if by_shard:
            done = await asyncio.gather(
                *(run_shard(shard, grouped)
                  for shard, grouped in by_shard.items()),
                return_exceptions=True)
            for outcome in done:
                if isinstance(outcome, BaseException):
                    raise outcome
        body = protocol.encode_body(parts)
        merged_sidecar = b"".join(chunks)
        return protocol.frame_from_body(body, merged_sidecar or None)
