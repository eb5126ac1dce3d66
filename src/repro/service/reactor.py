"""The one event loop every terpd serving process runs on.

The daemon, each cluster shard, the router and a promoted standby are
``async def`` coroutines; this module drives them on the stdlib alone
— ``selectors``, ``heapq``, ``socket`` and a wake socketpair — with
only what they await:

* :class:`Future` and :class:`Task` (a coroutine stepped on the loop,
  cancelled by throwing :class:`Cancelled` in at its ``await``);
* timers (:meth:`Loop.call_later`), :func:`sleep`, :func:`gather`,
  :func:`wait_for`, :class:`Event` and :class:`Lock`;
* :meth:`Loop.call_soon_threadsafe`, the one way another thread wakes
  the loop (a group-commit ticket retiring does);
* :class:`Stream`, a non-blocking socket: reads of at most what is
  asked, writes that go straight to the kernel and are buffered only
  past what it takes, :meth:`Stream.drain` for backpressure;
* :func:`listen` (TCP, ``SO_REUSEPORT`` on request) and
  :func:`listen_unix`, whose accepted connections each get a task;
  :func:`connect` dials out.  Every TCP socket either way carries
  ``TCP_NODELAY``: a response waits on no peer's ACK;
* :func:`readable`, which a signal handler's pipe wakes
  (:func:`repro.service.launch.serve`), and :func:`in_thread`, for a
  blocking call the loop must not make itself.

:func:`run` is the entry point: a fresh loop runs a coroutine to its
end, then cancels whatever tasks are left and closes.  One loop per
thread; :func:`running` finds it.
"""

from __future__ import annotations

import errno
import heapq
import os
import selectors
import socket
import stat
import sys
import threading
import time
from collections import deque
from typing import (
    Any, Callable, Coroutine, Deque, Generator, List, Optional, Set,
    Tuple, Union)

READ, WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE
#: Connections one readable listener accepts before the loop serves
#: anything else; also the listen backlog.
BACKLOG = 100
#: How long a listener that ran out of descriptors stops accepting.
ACCEPT_RETRY_S = 1.0
#: How long the tasks a finished :func:`run` cancels get to end.
SHUTDOWN_S = 5.0

_local = threading.local()


def running() -> "Loop":
    """The loop running in this thread."""
    loop = getattr(_local, "loop", None)
    if loop is None:
        raise RuntimeError("no reactor loop runs in this thread")
    return loop


def _report(error: BaseException, what: str) -> None:
    """An error nothing waits for: on stderr, with its traceback."""
    print(f"reactor: {what}", file=sys.stderr, flush=True)
    sys.excepthook(type(error), error, error.__traceback__)


class Cancelled(BaseException):
    """Thrown into a cancelled task at its ``await``."""


class Future:
    """A value that arrives later.  Callbacks run when it settles; a
    settled future ignores a later result, so whoever is late — a timer
    behind a wake, a wake behind a cancel — needs no check."""

    __slots__ = ("_done", "_result", "_error", "_callbacks")

    def __init__(self) -> None:
        self._done = False
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []

    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError("the future has not settled")
        if self._error is not None:
            raise self._error
        return self._result

    def set_result(self, value: Any) -> None:
        if not self._done:
            self._result = value
            self._settle()

    def set_exception(self, error: BaseException) -> None:
        if not self._done:
            self._error = error
            self._settle()

    def cancel(self) -> bool:
        if self._done:
            return False
        self._error = Cancelled()
        self._settle()
        return True

    def _settle(self) -> None:
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def __await__(self) -> Generator["Future", None, Any]:
        if not self._done:
            yield self
        return self.result()


class Task(Future):
    """A coroutine stepped on the loop; settles with what it returns.

    An exception nobody waits for (no callback when the task ends:
    nothing awaits it or gathers it) is reported on stderr."""

    __slots__ = ("_coro", "_loop", "_waiting", "_must_cancel")

    def __init__(self, loop: "Loop", coro: Coroutine[Any, Any, Any]
                 ) -> None:
        super().__init__()
        self._coro = coro
        self._loop = loop
        self._waiting: Optional[Future] = None
        self._must_cancel = False
        loop._tasks.add(self)
        loop.call_soon(self._step, None)

    def cancel(self) -> bool:
        """Throw :class:`Cancelled` in at the task's next step; what it
        waits on is cancelled too."""
        if self._done:
            return False
        self._must_cancel = True
        if self._waiting is not None:
            self._waiting.cancel()
        return True

    def _wakeup(self, fut: Future) -> None:
        self._loop.call_soon(self._step, fut)

    def _step(self, fut: Optional[Future]) -> None:
        if self._done:
            return
        self._waiting = None
        self._loop.current = self
        try:
            if self._must_cancel:
                self._must_cancel = False
                yielded = self._coro.throw(Cancelled())
            elif fut is not None and fut._error is not None:
                yielded = self._coro.throw(fut._error)
            else:
                yielded = self._coro.send(None)
        except StopIteration as stop:
            self._end()
            self.set_result(stop.value)
        except Cancelled as exc:
            self._end()
            self.set_exception(exc)
        except BaseException as exc:  # noqa: BLE001 -- settles the task
            self._end()
            if not self._callbacks:
                _report(exc, "a task nothing waits for failed")
            self.set_exception(exc)
        else:
            if not isinstance(yielded, Future):
                self._loop.call_soon(self._step, None)
                return
            self._waiting = yielded
            yielded.add_done_callback(self._wakeup)
        finally:
            self._loop.current = None

    def _end(self) -> None:
        self._loop._tasks.discard(self)


class Timer:
    """A callback at a deadline; :meth:`cancel` before it runs."""

    __slots__ = ("when", "fn", "args", "live", "_loop")

    def __init__(self, loop: "Loop", when: float,
                 fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self.when, self.fn, self.args = when, fn, args
        self.live = True
        self._loop = loop

    def __lt__(self, other: "Timer") -> bool:
        return self.when < other.when

    def cancel(self) -> None:
        if self.live:
            self.live = False
            self._loop._cancelled_timers += 1


class Loop:
    """Ready callbacks, a timer heap and a selector, run in turn."""

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        #: ``(fn, args)`` to run on the next turn; other threads append
        #: through :meth:`call_soon_threadsafe` (a deque's append and
        #: popleft are atomic).
        self._ready: Deque[Tuple[Callable[..., Any], Tuple[Any, ...]]] = \
            deque()
        self._timers: List[Timer] = []
        self._cancelled_timers = 0
        self._tasks: Set[Task] = set()
        #: the task being stepped, if any.
        self.current: Optional[Task] = None
        self._closed = False
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, READ, self._woken)

    # -- scheduling -------------------------------------------------------

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        self._ready.append((fn, args))

    def call_soon_threadsafe(self, fn: Callable[..., Any],
                             *args: Any) -> None:
        """From any thread; RuntimeError once the loop has closed."""
        if self._closed:
            raise RuntimeError("the loop is closed")
        self._ready.append((fn, args))
        try:
            self._wake_w.send(b"\0")
        except BlockingIOError:
            pass                   # bytes already wait: it will wake
        except OSError:
            raise RuntimeError("the loop is closed") from None

    def call_later(self, delay: float, fn: Callable[..., Any],
                   *args: Any) -> Timer:
        timer = Timer(self, time.monotonic() + delay, fn, args)
        heapq.heappush(self._timers, timer)
        return timer

    def spawn(self, coro: Coroutine[Any, Any, Any]) -> Task:
        return Task(self, coro)

    def _woken(self, _: int) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass

    # -- running ----------------------------------------------------------

    def _turn(self, limit: Optional[float] = None) -> None:
        timers = self._timers
        timeout = limit
        if self._ready:
            timeout = 0
        elif timers:
            timeout = max(0.0, timers[0].when - time.monotonic())
            if limit is not None:
                timeout = min(timeout, limit)
        for key, mask in self._selector.select(timeout):
            key.data(mask)
        if self._cancelled_timers > 64 and \
                self._cancelled_timers * 2 > len(timers):
            # Mostly dead weight (a psync's bound, cancelled when its
            # ticket retired): rebuilt rather than left to expire.
            timers[:] = [timer for timer in timers if timer.live]
            heapq.heapify(timers)
            self._cancelled_timers = 0
        now = time.monotonic()
        while timers and timers[0].when <= now:
            timer = heapq.heappop(timers)
            if timer.live:
                timer.live = False
                self._ready.append((timer.fn, timer.args))
            else:
                self._cancelled_timers -= 1
        ready = self._ready
        for _ in range(len(ready)):
            fn, args = ready.popleft()
            try:
                fn(*args)
            except Exception as exc:  # noqa: BLE001 -- the loop goes on
                _report(exc, f"callback {fn!r} failed")

    def run(self, main: Union[Coroutine[Any, Any, Any], Future]) -> Any:
        """Run until ``main`` settles; returns its result."""
        task = main if isinstance(main, Future) else self.spawn(main)
        previous = getattr(_local, "loop", None)
        _local.loop = self
        try:
            while not task._done:
                self._turn()
            return task.result()
        finally:
            _local.loop = previous

    def shutdown(self) -> None:
        """Cancel every task left, give them ``SHUTDOWN_S`` to end,
        close."""
        previous = getattr(_local, "loop", None)
        _local.loop = self
        cancelled: Set[Task] = set()
        deadline = time.monotonic() + SHUTDOWN_S
        try:
            while self._tasks and time.monotonic() < deadline:
                for task in self._tasks - cancelled:
                    task.cancel()
                    cancelled.add(task)
                self._turn(max(0.0, deadline - time.monotonic()))
        finally:
            _local.loop = previous
            self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()


def run(main: Coroutine[Any, Any, Any]) -> Any:
    """Run ``main`` on a fresh loop in this thread; returns its result."""
    loop = Loop()
    try:
        return loop.run(main)
    finally:
        loop.shutdown()


def spawn(coro: Coroutine[Any, Any, Any]) -> Task:
    return running().spawn(coro)


# -- what a coroutine awaits ------------------------------------------------


async def sleep(seconds: float) -> None:
    fut = Future()
    timer = running().call_later(seconds, fut.set_result, None)
    try:
        await fut
    finally:
        timer.cancel()


class _Gathered(Future):
    """What :func:`gather` returns: cancelling it cancels its parts."""

    __slots__ = ("_parts",)

    def __init__(self, parts: List[Future]) -> None:
        super().__init__()
        self._parts = parts

    def cancel(self) -> bool:
        if self._done:
            return False
        for part in self._parts:
            part.cancel()
        return super().cancel()


def gather(*awaitables: Union[Coroutine[Any, Any, Any], Future],
           return_exceptions: bool = False) -> Future:
    """Run ``awaitables`` concurrently; settles with their results in
    order — or with the first error, unless ``return_exceptions``
    gives each error in its part's place."""
    loop = running()
    parts = [aw if isinstance(aw, Future) else loop.spawn(aw)
             for aw in awaitables]
    out = _Gathered(parts)
    left = [len(parts)]

    def part_done(part: Future) -> None:
        if out._done:
            return
        if part._error is not None and not return_exceptions:
            out.set_exception(part._error)
            return
        left[0] -= 1
        if not left[0]:
            out.set_result([p._error if p._error is not None
                            else p._result for p in parts])

    if not parts:
        out.set_result([])
    for part in parts:
        part.add_done_callback(part_done)
    return out


async def wait_for(fut: Future, timeout: float) -> Any:
    """``await fut``, cancelled after ``timeout`` seconds with
    ``TimeoutError``."""
    expired: List[bool] = []

    def expire() -> None:
        expired.append(True)
        fut.cancel()

    timer = running().call_later(timeout, expire)
    try:
        return await fut
    except Cancelled:
        if expired:
            raise TimeoutError() from None
        raise
    finally:
        timer.cancel()


class Event:
    """Set once, waited on by any number of tasks (one loop's)."""

    __slots__ = ("_set", "_waiters")

    def __init__(self) -> None:
        self._set = False
        self._waiters: List[Future] = []

    def set(self) -> None:
        if not self._set:
            self._set = True
            waiters, self._waiters = self._waiters, []
            for fut in waiters:
                fut.set_result(True)

    async def wait(self) -> bool:
        if not self._set:
            fut = Future()
            self._waiters.append(fut)
            await fut
        return True


class Lock:
    """``async with lock:`` — first come, first served; released, it is
    handed to the next waiter still waiting."""

    __slots__ = ("_locked", "_waiters")

    def __init__(self) -> None:
        self._locked = False
        self._waiters: Deque[Future] = deque()

    async def __aenter__(self) -> None:
        if not self._locked:
            self._locked = True
            return
        fut = Future()
        self._waiters.append(fut)
        try:
            await fut
        except Cancelled:
            if fut.done() and fut._error is None:
                self._release()        # handed over, then cancelled
            raise

    async def __aexit__(self, *exc_info: Any) -> None:
        self._release()

    def _release(self) -> None:
        while self._waiters:
            fut = self._waiters.popleft()
            if not fut.done():
                fut.set_result(None)   # still locked: it is theirs
                return
        self._locked = False


async def readable(fd: int) -> None:
    """Wait until ``fd`` can be read."""
    selector = running()._selector
    fut = Future()
    selector.register(fd, READ, lambda _: fut.set_result(None))
    try:
        await fut
    finally:
        selector.unregister(fd)


async def in_thread(fn: Callable[..., Any], *args: Any) -> Any:
    """``fn(*args)`` on a thread of its own, the loop serving on."""
    loop = running()
    fut = Future()

    def work() -> None:
        try:
            value = fn(*args)
        except BaseException as exc:  # noqa: BLE001 -- handed back
            settle, value = fut.set_exception, exc
        else:
            settle = fut.set_result
        try:
            loop.call_soon_threadsafe(settle, value)
        except RuntimeError:
            pass                       # the loop closed meanwhile

    threading.Thread(target=work, name="terpd-in-thread",
                     daemon=True).start()
    return await fut


# -- sockets ----------------------------------------------------------------


class Stream:
    """One connected non-blocking socket on the loop.

    :meth:`read` waits for the socket to be readable, then takes at
    most what it asked for.  :meth:`write` hands its bytes to the
    kernel at once; what the kernel does not take yet is buffered and
    written as the peer reads (:meth:`buffered` counts it, and
    :meth:`drain` waits it out).  :meth:`close` ends reading at once
    and closes the socket once the buffer is written; :meth:`abort`
    drops the buffer.  A peer lost mid-write makes the stream
    ``closing``: later writes are dropped and a drain raises
    ``ConnectionResetError``."""

    __slots__ = ("sock", "closing", "_loop", "_fd", "_mask", "_out",
                 "_reader", "_drained", "_gone", "_closed", "_lost")

    def __init__(self, loop: Loop, sock: socket.socket) -> None:
        self.sock = sock
        #: no more reads; the socket closes once written out.
        self.closing = False
        self._loop = loop
        self._fd = sock.fileno()
        self._mask = 0
        self._out = bytearray()
        self._reader: Optional[Future] = None
        self._drained: Optional[Future] = None
        self._gone: Optional[Future] = None
        self._closed = False
        self._lost = False

    def _want(self, mask: int) -> None:
        if mask == self._mask or self._closed:
            return
        selector = self._loop._selector
        if not self._mask:
            selector.register(self._fd, mask, self._ready)
        elif not mask:
            selector.unregister(self._fd)
        else:
            selector.modify(self._fd, mask, self._ready)
        self._mask = mask

    def _ready(self, mask: int) -> None:
        if mask & WRITE:
            self._write_out()
        if mask & READ and not self._closed:
            reader, self._reader = self._reader, None
            if reader is not None and not reader.done():
                reader.set_result(None)
            else:
                # Nobody reads now: stop watching until someone does.
                self._want(self._mask & ~READ)

    async def read(self, n: int) -> bytes:
        """At most ``n`` bytes; ``b""`` at EOF or once closing."""
        while not self.closing:
            fut = self._reader = Future()
            self._want(self._mask | READ)
            await fut
            if self.closing:
                break
            try:
                data = self.sock.recv(n)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError as exc:
                self._lose()
                raise ConnectionResetError(str(exc)) from exc
            if not data:
                self._want(self._mask & ~READ)
            return data
        return b""

    def write(self, data: bytes) -> None:
        if self._closed:
            return
        if self._out:
            self._out += data
            return
        try:
            sent = self.sock.send(data)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            self._lose()
            return
        if sent < len(data):
            self._out += memoryview(data)[sent:]
            self._want(self._mask | WRITE)

    def _write_out(self) -> None:
        try:
            sent = self.sock.send(self._out)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._lose()
            return
        del self._out[:sent]
        if self._out:
            return
        self._want(self._mask & ~WRITE)
        drained, self._drained = self._drained, None
        if drained is not None:
            drained.set_result(None)
        if self.closing:
            self._close_now()

    def buffered(self) -> int:
        """Bytes written that the kernel has not taken yet."""
        return len(self._out)

    async def drain(self) -> None:
        """Wait until the kernel has taken everything written."""
        if self._out:
            if self._drained is None:
                self._drained = Future()
            await self._drained
        if self._lost:
            raise ConnectionResetError("the peer went away")

    def close(self) -> None:
        """Stop reading now; close once the buffer is written."""
        if self.closing:
            return
        self.closing = True
        self._wake_reader()
        if self._out:
            self._want(WRITE)
        else:
            self._close_now()

    def abort(self) -> None:
        """Close now; whatever is buffered is dropped."""
        self.closing = True
        self._out.clear()
        self._close_now()

    async def wait_closed(self) -> None:
        if not self._closed:
            if self._gone is None:
                self._gone = Future()
            await self._gone

    def _lose(self) -> None:
        self._lost = True
        self.abort()

    def _wake_reader(self) -> None:
        reader, self._reader = self._reader, None
        if reader is not None:
            reader.set_result(None)

    def _close_now(self) -> None:
        if self._closed:
            return
        self._want(0)
        self._closed = True
        self.closing = True
        self._wake_reader()
        drained, self._drained = self._drained, None
        if drained is not None:
            drained.set_result(None)   # ``drain`` raises if lost
        self.sock.close()
        if self._gone is not None:
            self._gone.set_result(None)


Handler = Callable[[Stream], Coroutine[Any, Any, None]]


class Listener:
    """A listening socket whose connections each get a ``handler``
    task."""

    __slots__ = ("sock", "_loop", "_handler", "_nodelay")

    def __init__(self, sock: socket.socket, handler: Handler, *,
                 nodelay: bool) -> None:
        self.sock = sock
        self._loop = running()
        self._handler = handler
        self._nodelay = nodelay
        sock.setblocking(False)
        self._loop._selector.register(sock, READ, self._accept)

    @property
    def port(self) -> int:
        return self.sock.getsockname()[1]

    def _accept(self, mask: int) -> None:
        for _ in range(BACKLOG):
            try:
                conn, _addr = self.sock.accept()
            except (BlockingIOError, InterruptedError,
                    ConnectionAbortedError):
                return
            except OSError:
                # Out of descriptors (or buffers): pause, or the
                # level-triggered event spins the loop.
                self._loop._selector.unregister(self.sock)
                self._loop.call_later(ACCEPT_RETRY_S, self._resume)
                return
            conn.setblocking(False)
            if self._nodelay:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._loop.spawn(self._handler(Stream(self._loop, conn)))

    def _resume(self) -> None:
        if self.sock.fileno() >= 0:
            self._loop._selector.register(self.sock, READ, self._accept)

    def close(self) -> None:
        if self.sock.fileno() < 0:
            return
        try:
            self._loop._selector.unregister(self.sock)
        except KeyError:
            pass                       # paused
        self.sock.close()


def listen(handler: Handler, host: str, port: int, *,
           reuse_port: bool = False) -> Listener:
    """Serve TCP connections to ``host:port`` (0: the kernel picks);
    ``reuse_port`` lets several processes bind the one port
    (``SO_REUSEPORT``: the kernel spreads the accepts)."""
    family, kind, proto, _, addr = socket.getaddrinfo(
        host, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE)[0]
    sock = socket.socket(family, kind, proto)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind(addr)
        sock.listen(BACKLOG)
    except BaseException:
        sock.close()
        raise
    return Listener(sock, handler, nodelay=True)


def listen_unix(handler: Handler, path: str) -> Listener:
    """Serve connections to the Unix socket ``path``; a stale socket
    file there is replaced."""
    try:
        if stat.S_ISSOCK(os.stat(path).st_mode):
            os.remove(path)
    except FileNotFoundError:
        pass
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.bind(path)
        sock.listen(BACKLOG)
    except BaseException:
        sock.close()
        raise
    return Listener(sock, handler, nodelay=False)


async def connect(host: str, port: int) -> Stream:
    """A TCP connection to ``host:port``."""
    loop = running()
    family, kind, proto, _, addr = socket.getaddrinfo(
        host, port, type=socket.SOCK_STREAM)[0]
    sock = socket.socket(family, kind, proto)
    try:
        sock.setblocking(False)
        error = sock.connect_ex(addr)
        if error == errno.EINPROGRESS:
            fut = Future()
            loop._selector.register(sock, WRITE,
                                    lambda _: fut.set_result(None))
            try:
                await fut
            finally:
                loop._selector.unregister(sock)
            error = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if error:
            raise OSError(error, os.strerror(error))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except BaseException:
        sock.close()
        raise
    return Stream(loop, sock)
