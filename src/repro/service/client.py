"""terpd clients: one sans-IO core, two transports that move bytes.

:class:`ClientCore` is the whole client, written once and doing no
I/O: request preparation and request-id allocation, response
matching (:meth:`~ClientCore.take_result`), the hello / resume /
fresh-session decision, and the retry + circuit-breaker attempt loop.
It expresses every operation as a generator of *steps* — open the
byte stream, close it, send these frame bytes, receive one frame's
bytes, sleep — and a transport's only job is to carry the steps out:

* :class:`SyncTerpClient` — a plain blocking socket, for threads,
  scripts, and load generators;
* :class:`TerpClient` — asyncio streams; every method returns an
  awaitable.  asyncio is imported by it alone, so no serving process
  loads it (the cluster router's shard connections drive the same core
  on :mod:`repro.service.reactor`).

So both expose the same surface: ``call()`` (one request, one
response), ``pipeline()`` (a burst of request frames sent back-to-back
before any response is read), ``batch()`` (the burst packed into one
array frame), and one typed method per row of the op table
(:mod:`repro.service.ops` — ``create``/``open``/``attach``/``detach``/
``pmalloc``/``pfree``/``read``/``write``/``psync``/``destroy``/...),
generated from the table rather than written out.  Error responses
become :class:`RemoteError`; out-of-band ``forced-detach`` events
collect in :attr:`~ClientCore.events`.

Robustness (opt-in via the ``retry`` / ``breaker`` constructor
arguments; without them a failure simply raises):

* a lost connection surfaces as :class:`ConnectionLost` — typed, so
  callers can tell "the server said no" from "the server went away";
* with a :class:`~repro.service.retry.RetryPolicy`, a lost connection
  triggers reconnect + session resume + replay of the *same request
  ids* after a jittered exponential backoff.  The server's per-session
  replay cache makes the retry idempotent: a request that executed
  but whose response was lost is answered from the cache, never run
  twice — unless its ``OPS`` row is ``readonly``: that one runs again,
  after a resume against windows the drop closed (a retried ``read``
  is refused until re-attached).  A retryable error kind
  (``InjectedFault``) is retried in place (``call()`` only).  A
  session that cannot be resumed is replaced by a fresh one, counted
  in ``sessions_lost``.
* with a :class:`~repro.service.retry.CircuitBreaker`, consecutive
  connection failures open the circuit and the client degrades to
  read-only operations until a probe succeeds.
"""

from __future__ import annotations

import socket
from typing import (
    Any, Awaitable, Callable, Dict, Generator, List, Optional, Tuple)

from repro.core.errors import TerpError
from repro.pmo.object_id import Oid
from repro.service import protocol
from repro.service.ops import OPS, REQUIRED, Op
from repro.service.protocol import WireError
from repro.service.retry import (
    READ_ONLY_OPS, RETRYABLE_KINDS, CircuitBreaker, CircuitOpenError,
    RetryPolicy)

#: The steps a core generator yields; the transport executes each and
#: sends its value (or throws its failure) back in.  ``OPEN`` replaces
#: any existing byte stream; ``SEND`` carries whole frames — a
#: pipelined burst is one step, so one write and one segment; ``RECV``
#: answers one frame's ``(body, sidecar)`` bytes or ``None`` on clean
#: EOF; ``SLEEP`` carries the seconds to wait.
OPEN, CLOSE, SEND, RECV, SLEEP = "open", "close", "send", "recv", "sleep"
Steps = Generator[Tuple[Any, ...], Any, Any]


async def drive(steps: Steps,
                do: Callable[..., Awaitable[Any]]) -> Any:
    """Carry ``steps`` out on an event loop: ``await do(*step)`` for
    each, its value sent back in, its failure thrown — the attempt loop
    of every awaitable transport."""
    try:
        step = next(steps)
        while True:
            try:
                value = await do(*step)
            except (OSError, TerpError) as exc:
                step = steps.throw(exc)
            else:
                step = steps.send(value)
    except StopIteration as stop:
        return stop.value


class RemoteError(TerpError):
    """An error response from terpd; ``kind`` is the server-side
    exception class name (``PmoError``, ``TerpError``, ...)."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.remote_message = message


class ConnectionLost(RemoteError):
    """The server went away mid-conversation (EOF, reset, torn frame).

    Distinct from an error *response*: the server never answered, so
    the fate of any in-flight request is unknown — which is exactly
    what the retry machinery's idempotent replay resolves.
    """

    def __init__(self, message: str) -> None:
        super().__init__("ConnectionLost", message)


class ClientCore:
    """The sans-IO client: state, request/response logic, and the
    attempt loop, as step generators a transport's ``_run`` drives."""

    def __init__(self, *, user: str, ew_budget_us: Optional[float],
                 retry: Optional[RetryPolicy],
                 breaker: Optional[CircuitBreaker]) -> None:
        self._user, self._budget = user, ew_budget_us
        self._retry = retry
        self._breaker = breaker
        self.session_id: Optional[int] = None
        self.entity_id: Optional[int] = None
        self.ew_budget_us: Optional[float] = None
        self.resume_token: str = ""
        #: the wire revision ``hello`` confirmed (None until connected).
        self.protocol_version: Optional[int] = None
        #: out-of-band events (forced detaches) seen on any response.
        #: Delivery is at-least-once: a replayed response repeats the
        #: events that rode on the original.
        self.events: List[dict] = []
        #: successful session resumptions after a connection drop.
        self.resumes = 0
        #: reconnects where resume failed and a fresh session was opened.
        self.sessions_lost = 0
        self._next_id = 0

    def _run(self, steps: Steps) -> Any:
        """Execute ``steps`` against the byte stream (the transport)."""
        raise NotImplementedError

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @property
    def forced_detaches(self) -> int:
        return sum(1 for e in self.events
                   if e.get("event") == "forced-detach")

    # -- frames in, frames out ----------------------------------------------

    @staticmethod
    def _prep(rid: int, op: str, args: Dict[str, Any]
              ) -> Tuple[List[Any], bytes]:
        """One request array plus its sidecar bytes.  The op table
        orders the values and names the one whose ``bytes`` leave the
        JSON for the sidecar; the caller's dict is never mutated, so a
        retry re-preps the same request.  That value must be bytes: its
        slot carries their count, so anything else would be read as a
        count and take the bytes of a later request in the frame."""
        spec = OPS.get(op)
        field = spec.bin_arg if spec is not None else None
        data = args.get(field) if field is not None else None
        if data is None:
            return protocol.request(rid, op, args), b""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"op {op!r} sends {field!r} as bytes, not "
                            f"{type(data).__name__}")
        return protocol.request(
            rid, op, dict(args, **{field: len(data)})), bytes(data)

    @staticmethod
    def _decode(got: Optional[Tuple[bytes, bytes]]
                ) -> Tuple[Any, protocol.BinReader]:
        """A received frame's payload and a cursor over its sidecar,
        which :meth:`take_result` takes each result's bytes off;
        ``None`` for the payload on EOF.  A torn frame (e.g. the server
        died mid-write) is a connection failure, not a protocol
        dispute."""
        if got is None:
            return None, protocol.BinReader(b"")
        try:
            return (protocol.decode_frame(got[0]),
                    protocol.BinReader(got[1]))
        except WireError as exc:
            raise ConnectionLost(str(exc)) from exc

    def take_result(self, response: Any, expect_id: int, op: str,
                    bins: protocol.BinReader) -> Any:
        """The result of ``op``'s response, named again by its row, its
        binary slot's bytes taken off ``bins`` (the frame's sidecar); a
        refusal raises :class:`RemoteError`.  Either way, the events it
        carried join :attr:`events` first."""
        if response is None:
            raise ConnectionLost("server closed the connection")
        if not isinstance(response, list) or len(response) < 2:
            raise WireError(f"response is not [id, outcome]: "
                            f"{response!r}")
        if response[0] != expect_id:
            raise WireError(
                f"response id {response[0]!r} does not match "
                f"request id {expect_id} (pipelining desync)")
        if len(response) > 2:
            self.events.extend(protocol.named_events(response[2]))
        outcome = response[1]
        if isinstance(outcome, str):
            raise RemoteError(*protocol.error_of(outcome))
        try:
            # Absorbed even when empty: a zero-byte read's slot still
            # holds its count.
            protocol.absorb(op, response, bins)
        except WireError as exc:
            raise ConnectionLost(str(exc)) from exc
        return protocol.named_result(op, outcome)

    def _outcome(self, response: Any, rid: int, op: str,
                 bins: protocol.BinReader) -> Any:
        """:meth:`take_result`, with an error *response* returned as a
        value: the slot was answered, later slots must still be read."""
        try:
            return self.take_result(response, rid, op, bins)
        except ConnectionLost:
            raise
        except RemoteError as exc:
            return exc

    # -- hello / resume ------------------------------------------------------

    def _hello_steps(self, extra: Dict[str, Any]) -> Steps:
        rid = self.next_id()
        yield SEND, protocol.encode_frame(protocol.request(
            rid, "hello", dict(extra, version=protocol.PROTOCOL_VERSION,
                               user=self._user,
                               ew_budget_us=self._budget)))
        response, bins = self._decode((yield (RECV,)))
        result = self.take_result(response, rid, "hello", bins)
        self.session_id = result["session"]
        self.entity_id = result["entity"]
        self.ew_budget_us = result["ew_budget_us"]
        self.resume_token = str(result.get("token", ""))
        self.protocol_version = int(result["version"])

    def _connect_steps(self) -> Steps:
        """(Re)open the byte stream and establish the session.

        Resume first (same session id, entity id, and replay cache);
        if the server no longer knows the session, fall back to a
        fresh one.
        """
        yield (OPEN,)
        if self.session_id is not None and self.resume_token:
            try:
                yield from self._hello_steps(
                    {"resume": self.session_id,
                     "token": self.resume_token})
                self.resumes += 1
                return self
            except ConnectionLost:
                raise
            except RemoteError:
                self.sessions_lost += 1
        yield from self._hello_steps({})
        return self

    def connect(self) -> Any:
        return self._run(self._connect_steps())

    # -- the attempt loop ----------------------------------------------------

    def _exchange_steps(self, requests: List[Tuple[str, Dict]], *,
                        batch: bool = False,
                        single: Optional[Callable[[Any], Any]] = None
                        ) -> Steps:
        """Send ``requests`` (one frame each, or one array frame when
        ``batch``), read every reply, return the results in order —
        or, for the one request of a ``call()``, ``single(result)``.

        Every outstanding reply is drained before the first error
        response is raised at its slot, so the connection is never
        left mid-stream.  With a retry policy, a connection lost
        mid-exchange re-sends only the *unanswered* request ids after
        reconnect + resume: answered slots are kept and already-
        executed stragglers come from the server's replay cache.
        A ``call()`` also retries a retryable error *response*
        (``InjectedFault``) in place.
        """
        items = [(self.next_id(), op, args) for op, args in requests]
        retry, breaker = self._retry, self._breaker
        outcomes: List[Any] = []
        attempt = 0
        while True:
            if breaker is not None and not breaker.allow(readonly=all(
                    op in READ_ONLY_OPS for _, op, _ in items)):
                raise CircuitOpenError(
                    f"circuit open: refusing "
                    f"{items[0][1] if items else 'ping'!r}; only "
                    "read-only operations pass until the server "
                    "recovers")
            try:
                if batch:
                    yield from self._batch_steps(items, outcomes)
                else:
                    yield SEND, b"".join([
                        protocol.encode_frame(*self._prep(*item))
                        for item in items[len(outcomes):]])
                    while len(outcomes) < len(items):
                        response, bins = self._decode((yield (RECV,)))
                        rid, op, _ = items[len(outcomes)]
                        outcomes.append(
                            self._outcome(response, rid, op, bins))
            except ConnectionLost:
                yield (CLOSE,)
                if breaker is not None:
                    breaker.record_failure()
                if retry is None or attempt >= retry.max_retries:
                    raise
                yield SLEEP, retry.delay_for(attempt)
                attempt += 1
                # Best effort: if this fails, the next attempt finds
                # no connection, fails, and counts.
                try:
                    yield from self._connect_steps()
                except (OSError, TerpError):
                    yield (CLOSE,)
                continue
            errors = [o for o in outcomes if isinstance(o, RemoteError)]
            if breaker is not None:
                # An error *response* still round-tripped.
                breaker.record_success()
            if not errors:
                return outcomes if single is None \
                    else single(outcomes[0])
            if single is not None and retry is not None and \
                    errors[0].kind in RETRYABLE_KINDS and \
                    attempt < retry.max_retries:
                yield SLEEP, retry.delay_for(attempt)
                attempt += 1
                outcomes.clear()
                continue
            raise errors[0]

    def _batch_steps(self, items: List[Tuple[int, str, Dict]],
                     outcomes: List[Any]) -> Steps:
        """One array frame each way; the items' binary payloads travel
        as one combined sidecar, concatenated in item order."""
        prepped = [self._prep(*item) for item in items]
        yield SEND, protocol.encode_frame(
            [payload for payload, _ in prepped],
            b"".join(sidecar for _, sidecar in prepped) or None)
        responses, bins = self._decode((yield (RECV,)))
        if responses is None:
            raise ConnectionLost(
                "server closed before the batch response")
        if not isinstance(responses, list) or \
                len(responses) != len(items):
            raise WireError("batch response shape mismatch")
        outcomes[:] = [self._outcome(response, rid, op, bins) for
                       response, (rid, op, _) in zip(responses, items)]

    def _call(self, op: str, args: Dict[str, Any],
              finish: Callable[[Any], Any] = lambda result: result
              ) -> Any:
        return self._run(self._exchange_steps([(op, args)],
                                              single=finish))

    def call(self, op: str, **args: Any) -> Any:
        """One request, one response — with retry if configured."""
        return self._call(op, args)

    def pipeline(self, requests: List[Tuple[str, Dict]]) -> Any:
        """Send every request frame before reading any response;
        results come back in request order."""
        return self._run(self._exchange_steps(requests))

    def batch(self, requests: List[Tuple[str, Dict]]) -> Any:
        """Pack many requests into one frame (one syscall each way)."""
        return self._run(self._exchange_steps(requests, batch=True))


def _typed_method(spec: Op) -> Callable[..., Any]:
    """The typed client method for one op-table row."""
    names = [name for name, _ in spec.params]
    known = frozenset(names)
    defaults = dict(spec.params)

    def finish(result: Any) -> Any:
        if spec.returns is None:
            return result
        if spec.returns == "":
            return None
        value = result[spec.returns]
        return Oid.unpack(value) if spec.returns == "oid" else value

    def method(self: ClientCore, *args: Any, **kwargs: Any) -> Any:
        if len(args) > len(names) or not kwargs.keys() <= known:
            raise TypeError(f"{spec.method}() takes {names}")
        given = dict(zip(names, args), **kwargs)
        wire: Dict[str, Any] = {}
        for name in names:
            value = given.get(name, defaults[name])
            if value is REQUIRED:
                raise TypeError(f"{spec.method}() needs {name!r}")
            if name == "oid":
                value = value.pack()
            elif name == spec.bin_arg:
                value = bytes(value)
            if value is not None:
                wire[name] = value
        return self._call(spec.name, wire, finish)

    method.__name__ = method.__qualname__ = str(spec.method)
    method.__doc__ = (
        f"``{spec.name}`` ({', '.join(names) or 'no arguments'}): one "
        "row of :data:`repro.service.ops.OPS`.")
    return method


for _spec in OPS.values():
    if _spec.method is not None:
        setattr(ClientCore, _spec.method, _typed_method(_spec))


class SyncTerpClient(ClientCore):
    """Blocking terpd client over TCP or a Unix socket."""

    def __init__(self, *, host: str = "127.0.0.1",
                 port: Optional[int] = None,
                 unix_path: Optional[str] = None,
                 user: str = "root",
                 ew_budget_us: Optional[float] = None,
                 timeout: float = 30.0,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        super().__init__(user=user, ew_budget_us=ew_budget_us,
                         retry=retry, breaker=breaker)
        if (port is None) == (unix_path is None):
            raise TerpError("give exactly one of port / unix_path")
        self._sock: Optional[socket.socket] = None
        self._splitter = protocol.FrameSplitter()
        self._host, self._port, self._unix = host, port, unix_path
        self._timeout = timeout

    def _run(self, steps: Steps) -> Any:
        try:
            step = next(steps)
            while True:
                try:
                    value = self._do(*step)
                except (OSError, TerpError) as exc:
                    step = steps.throw(exc)
                else:
                    step = steps.send(value)
        except StopIteration as stop:
            return stop.value

    def _do(self, kind: str, arg: Any = None) -> Any:
        if kind == SEND or kind == RECV:
            if self._sock is None:
                raise ConnectionLost("not connected")
            try:
                if kind == SEND:
                    return self._sock.sendall(arg)
                return protocol.recv_frame(self._sock, self._splitter)
            except (OSError, WireError) as exc:
                self._drop_socket()
                raise ConnectionLost(f"{kind} failed: {exc}") from exc
        if kind == SLEEP:
            return self._retry.sleep(arg)
        self._drop_socket()
        if kind == OPEN:
            self._open_socket()

    def _open_socket(self) -> None:
        if self._unix is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self._timeout)
            sock.connect(self._unix)
        else:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._splitter = sock, protocol.FrameSplitter()

    def _drop_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            finally:
                self._sock = None

    def close(self) -> None:
        self._drop_socket()

    def __enter__(self) -> "SyncTerpClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()


class TerpClient(ClientCore):
    """Asyncio terpd client: the same surface, every method awaitable.

    One exchange runs at a time per client (an ``asyncio.Lock``
    serializes concurrent tasks); in-flight parallelism on one
    connection is what ``pipeline()`` and ``batch()`` are for.
    """

    def __init__(self, *, host: str = "127.0.0.1",
                 port: Optional[int] = None,
                 unix_path: Optional[str] = None,
                 user: str = "root",
                 ew_budget_us: Optional[float] = None,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        import asyncio

        super().__init__(user=user, ew_budget_us=ew_budget_us,
                         retry=retry, breaker=breaker)
        if (port is None) == (unix_path is None):
            raise TerpError("give exactly one of port / unix_path")
        self._host, self._port, self._unix = host, port, unix_path
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._splitter = protocol.FrameSplitter()
        self._lock = asyncio.Lock()

    async def _run(self, steps: Steps) -> Any:
        async with self._lock:
            return await drive(steps, self._do)

    async def _do(self, kind: str, arg: Any = None) -> Any:
        import asyncio

        if kind == SEND or kind == RECV:
            if self._writer is None:
                raise ConnectionLost("not connected")
            try:
                if kind == SEND:
                    self._writer.write(arg)
                    return await self._writer.drain()
                return await protocol.read_frame(self._reader,
                                                 self._splitter)
            except (OSError, WireError) as exc:
                await self.close()
                raise ConnectionLost(f"{kind} failed: {exc}") from exc
        if kind == SLEEP:
            return await asyncio.sleep(arg)
        await self.close()
        if kind == OPEN:
            if self._unix is not None:
                self._reader, self._writer = \
                    await asyncio.open_unix_connection(self._unix)
            else:
                self._reader, self._writer = \
                    await asyncio.open_connection(self._host, self._port)
            self._splitter = protocol.FrameSplitter()

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def __aenter__(self) -> "TerpClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
