"""The terpd wire protocol: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Frames carry values, not names, both ways: the
op table (:mod:`repro.service.ops`) is the schema.

* **Request** ``[7, "attach", "mydata", "rw"]`` — rid, op, then the
  values in the row's ``params`` order; trailing values not given are
  dropped, an interior one travels as ``null`` ("not given").
* **Response** ``[7, ["performed", "case 1: first attach"]]`` — rid
  and outcome, plus ``[...]`` events as a third element when there are
  any.  The outcome's JSON type tells the two kinds apart: an *array*
  is a result, the values in the row's ``results`` order (an
  open-ended answer — ``metrics``, ``trace``, ``repl_status`` — is one
  object in its one slot); a *string* is a refusal, ``"PmoError:
  message"``: the error kind, ``": "``, the message.
* **Event** ``["forced-detach", "mydata", 3, 51200, "reason"]`` — the
  kind, then its row of :data:`repro.service.ops.EVENTS` in order.
* **Batch** — an array of requests, answered by an array of responses
  in the same order.

Clients may also *pipeline*: send many single-request frames without
waiting, then collect the responses, which the server returns in
request order per connection.  Events are the session's pending
out-of-band notifications — today only ``forced-detach``, emitted when
the sweeper closed one of its exposure windows by force.  Clients name
results and events again (:func:`named_result`, :func:`named_events`),
so a caller sees dicts.

OIDs travel as their packed 64-bit integer
(:meth:`repro.pmo.object_id.Oid.pack`).  ``hello``'s first value is
the wire revision, ``4`` — the only one there is; anything else
(absent included), and any object-shaped frame (revision 2 and
before), is refused with a typed "protocol version N unsupported"
error.

**The binary sidecar.**  Binary payloads (PMO data) never enter the
JSON.  A frame may append a *binary sidecar* after the JSON body::

    u32be (SIDECAR_FLAG | body_len) | body | u32be sidecar_len | sidecar

The top bit of the length word marks the sidecar's presence — legal
because ``MAX_FRAME_BYTES`` is far below 2**31.  JSON marks each
binary value with ``{"bin": <len>}`` — the only object a request
value may be, and what a binary result's slot holds; consumers take
``len`` bytes off the sidecar in request (or response) order via
:class:`BinReader`.  A batch frame has one
combined sidecar: the concatenation of its items' chunks, in item
order.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.errors import TerpError
from repro.obs.ring import dumps as _dumps
from repro.service.ops import EVENTS, OPS, WHOLE

#: Frame header: payload length, 4-byte big-endian unsigned.  The same
#: struct frames the sidecar length word.
HEADER = struct.Struct(">I")
#: Upper bound on a single frame, a sanity guard against a desynced or
#: hostile peer streaming garbage lengths (16 MiB fits any sane batch).
MAX_FRAME_BYTES = 16 * 1024 * 1024
#: Upper bound on a frame's binary sidecar (a batch of large reads).
MAX_SIDECAR_BYTES = 64 * 1024 * 1024
#: The one protocol revision; ``hello`` must offer exactly this.
PROTOCOL_VERSION = 4
#: Top bit of the length word: a binary sidecar follows the body.
SIDECAR_FLAG = 0x80000000
#: Mask recovering the JSON body length from a flagged length word.
LEN_MASK = 0x7FFFFFFF
#: What every reader, asyncio transports included, takes per read
#: (their 256 KiB default page-faulted twice per relayed frame).
READ_BYTES = 65536


class WireError(TerpError):
    """Malformed frame, oversized frame, or truncated stream."""


# -- framing ----------------------------------------------------------------

def is_batch(payload: Any) -> bool:
    """A batch is an array of frames — requests, responses or their
    encoded bytes, ``[]`` included (an object counts: a revision-2
    batch is refused item by item); a single frame is an array that
    starts with its rid."""
    return isinstance(payload, list) and (
        not payload or isinstance(payload[0], (list, dict, bytes)))


def _length(part: Any) -> int:
    """A body part's bytes: ``bytes``, or a sized part's ``size``."""
    return len(part) if type(part) is bytes else part.size


def body_parts(payload: Any, limit: int = MAX_FRAME_BYTES) -> List[Any]:
    """A request/response (or batch) as JSON body bytes, in pieces for
    one join with the frame header (:func:`frame_from_body`).

    ``bytes`` are pre-encoded JSON and spliced in as they are: a
    batch's items — the batch response path encodes each response
    exactly once.  A ``[rid, [result](, events)]`` response's one
    value may instead be a *sized part*: an object whose ``size`` is
    its text's length and whose iteration gives the text in pieces
    (``trace``'s answer, a snapshot of the rings: see
    :class:`StreamedFrame`).  A batch is sized incrementally: each item
    is encoded once and the running total is checked against
    ``MAX_FRAME_BYTES`` as it goes, so an oversized batch fails fast
    without materializing the frame; a sized part is checked by its
    size, before a byte of it is written.  A single response is held
    to ``limit`` (what is left of a batch's frame for one of its
    items).
    """
    if is_batch(payload):
        parts: List[Any] = [b"["]
        total = 2                      # the enclosing brackets
        for item in payload:
            part = item if type(item) is bytes else _dumps(item)
            total += len(part) + 1     # item + separating comma
            if total - 1 > MAX_FRAME_BYTES:
                raise WireError(
                    f"batch frame exceeds {MAX_FRAME_BYTES} bytes "
                    f"after {len(parts) // 2} of {len(payload)} items")
            parts += (part, b",")
        parts[-1:] = [b"]"] if payload else [b"[]"]
        return parts
    values = payload[1] if type(payload) is list and len(payload) > 1 \
        else None
    if type(values) is list and len(values) == 1 and \
            hasattr(values[0], "size"):
        rid, (result,), *events = payload
        parts = [b"[" + _dumps(rid) + b",[", result,
                 b"]," + _dumps(events[0]) + b"]" if events else b"]]"]
        size = sum(map(_length, parts))
    else:
        parts = [_dumps(payload)]
        size = len(parts[0])
    if size > limit:
        raise WireError(f"frame of {size} bytes exceeds {limit}")
    return parts


def join_body(parts: List[Any]) -> bytes:
    """:func:`body_parts` as one ``bytes``, a sized part's text joined
    in: for what keeps or splices a body whole (a replay cache entry, a
    batch's item)."""
    try:
        return b"".join(parts)
    except TypeError:                 # a sized part
        return b"".join(chain.from_iterable(
            (part,) if type(part) is bytes else part for part in parts))


def encode_body(payload: Any) -> bytes:
    """Serialize a request/response (or batch) to JSON body bytes
    (:func:`body_parts`, joined)."""
    return join_body(body_parts(payload))


class StreamedFrame:
    """A frame whose body has a sized part: it is never joined whole,
    but made a chunk at a time as it is written (:meth:`chunks`) —
    what it costs in memory is its snapshot plus one chunk.  ``len``
    is the frame's length; ``bytes(frame)`` joins it."""

    __slots__ = ("parts", "size")

    def __init__(self, body: List[Any], sidecar: Optional[bytes]) -> None:
        size = sum(map(_length, body))
        self.parts = [HEADER.pack(size | SIDECAR_FLAG) if sidecar
                      else HEADER.pack(size), *body]
        if sidecar:
            self.parts += (HEADER.pack(len(sidecar)), sidecar)
        self.size = sum(map(_length, self.parts))

    def __len__(self) -> int:
        return self.size

    def __bytes__(self) -> bytes:
        return b"".join(self.chunks())

    def chunks(self, limit: int = READ_BYTES) -> Iterator[bytes]:
        """The frame's bytes in order, in chunks of at most ``limit``:
        pieces gathered, one longer than a chunk cut.  Every chunk is a
        new object, never changed once handed out.  The header promised
        ``size`` bytes: parts whose text came out another length (an
        attr mutated since the sizing pass) are a :class:`WireError`
        before more than that, or after fewer, have left — the
        connection is dropped, never desynchronized."""
        buf, made = bytearray(), 0
        for piece in chain.from_iterable(
                (part,) if type(part) is bytes else part
                for part in self.parts):
            made += len(piece)
            if len(buf) + len(piece) <= limit and made <= self.size:
                buf += piece
                continue
            if made > self.size:
                break
            if buf:
                yield buf
                buf = bytearray()
            start = 0
            while len(piece) - start > limit:
                yield piece[start:start + limit]
                start += limit
            buf += piece[start:] if start else piece
        if made != self.size:
            raise WireError(f"a frame of {self.size} bytes came out "
                            f"{'longer' if made > self.size else made}")
        yield buf


def frame_from_body(body: Union[bytes, List[Any]],
                    sidecar: Optional[bytes] = None
                    ) -> Union[bytes, StreamedFrame]:
    """Wrap pre-encoded body bytes — or :func:`body_parts` — and an
    optional sidecar in a frame: one join, header included; a
    :class:`StreamedFrame` when the body has a sized part."""
    parts = [body] if isinstance(body, bytes) else body
    if sidecar and len(sidecar) > MAX_SIDECAR_BYTES:
        raise WireError(f"sidecar of {len(sidecar)} bytes exceeds "
                        f"{MAX_SIDECAR_BYTES}")
    try:
        size = sum(map(len, parts))
    except TypeError:                 # a sized part, which has no len()
        return StreamedFrame(parts, sidecar)
    if not sidecar:
        return b"".join([HEADER.pack(size), *parts])
    return b"".join([HEADER.pack(size | SIDECAR_FLAG), *parts,
                     HEADER.pack(len(sidecar)), sidecar])


def encode_frame(payload: Any,
                 sidecar: Optional[bytes] = None) -> bytes:
    """Serialize one request/response (or batch) into a wire frame."""
    return bytes(frame_from_body(body_parts(payload), sidecar))


def decode_frame(body: bytes) -> Any:
    """Parse a frame body (the bytes after the length header)."""
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame: {exc}") from None


class FrameSplitter:
    """The one parser of the header/sidecar layout, doing no I/O.

    :meth:`feed` it whatever the transport read — half a frame, a
    pipelined burst — and it hands out the complete ``(body,
    sidecar)`` frames (``sidecar`` is ``b""`` for a frame without one;
    the JSON body stays undecoded, so the cluster router can relay it
    verbatim).  A length word is checked as soon as its four bytes are
    in: an oversize body or sidecar is a :class:`WireError` from the
    header alone, before a byte of it is waited for.  A stream that
    ends mid-frame is the same typed error, from :meth:`eof`.
    """

    __slots__ = ("_buf", "_pos")

    def __init__(self) -> None:
        self._buf = bytearray()        # unparsed input, from _pos on
        self._pos = 0

    def feed(self, data: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Take in what a read returned; iterate the frames it
        completed (a bad length word raises at its turn, after the
        frames ahead of it were handed out)."""
        if self._pos:
            del self._buf[:self._pos]
            self._pos = 0
        self._buf += data
        return iter(self.next_frame, None)

    def next_frame(self) -> Optional[Tuple[bytes, bytes]]:
        """The next complete frame, or ``None`` until more is fed."""
        buf, pos = self._buf, self._pos
        if len(buf) - pos < HEADER.size:
            return None
        (word,) = HEADER.unpack_from(buf, pos)
        if word & LEN_MASK > MAX_FRAME_BYTES:
            raise WireError(f"frame length {word & LEN_MASK} exceeds "
                            f"{MAX_FRAME_BYTES}")
        body_end = side_at = end = pos + HEADER.size + (word & LEN_MASK)
        if word & SIDECAR_FLAG:
            side_at = end = body_end + HEADER.size
            if side_at <= len(buf):
                (side_len,) = HEADER.unpack_from(buf, body_end)
                if side_len > MAX_SIDECAR_BYTES:
                    raise WireError(f"sidecar length {side_len} "
                                    f"exceeds {MAX_SIDECAR_BYTES}")
                end += side_len
        if end > len(buf):
            return None
        self._pos = end
        return (bytes(buf[pos + HEADER.size:body_end]),
                bytes(buf[side_at:end]))

    def eof(self) -> None:
        """The stream ended: fine between frames, :class:`WireError`
        (truncation is a typed error, never a hang) inside one."""
        if len(self._buf) > self._pos:
            raise WireError(f"stream truncated mid-frame "
                            f"({len(self._buf) - self._pos} bytes in)")


def recv_frame(sock: socket.socket, splitter: FrameSplitter
               ) -> Optional[Tuple[bytes, bytes]]:
    """The next frame off a blocking socket — ``splitter`` holds what
    earlier reads left over — or ``None`` on clean EOF."""
    frame = splitter.next_frame()
    while frame is None:
        data = sock.recv(READ_BYTES)
        if not data:
            splitter.eof()
            return None
        frame = next(splitter.feed(data), None)
    return frame


async def read_frame(reader: asyncio.StreamReader,
                     splitter: FrameSplitter
                     ) -> Optional[Tuple[bytes, bytes]]:
    """Asyncio-stream counterpart of :func:`recv_frame`."""
    frame = splitter.next_frame()
    while frame is None:
        data = await reader.read(READ_BYTES)
        if not data:
            splitter.eof()
            return None
        frame = next(splitter.feed(data), None)
    return frame


# -- sidecar plumbing --------------------------------------------------------

class BinReader:
    """Sequential, bounds-checked cursor over a frame's sidecar.

    Requests (or responses) consume their binary chunks in frame
    order; an underrun — a ``{"bin": n}`` marker claiming more bytes
    than the sidecar holds — is a typed :class:`WireError`.
    """

    __slots__ = ("_buf", "_pos", "_size")

    def __init__(self, buf: bytes) -> None:
        self._buf = buf
        self._pos = 0
        self._size = len(buf)

    def take(self, n: int) -> bytes:
        pos = self._pos
        if n < 0 or pos + n > self._size:
            raise WireError(f"sidecar underrun: need {n} bytes at "
                            f"offset {pos} of {self._size}")
        self._pos = pos + n
        return self._buf[pos:pos + n]

    @property
    def remaining(self) -> int:
        return self._size - self._pos


def bin_length(marker: Any) -> int:
    """The byte count a request's ``{"bin": n}`` marker claims."""
    if not isinstance(marker, dict) or \
            not isinstance(marker.get("bin"), int):
        raise WireError("a binary argument must be a {'bin': <len>} "
                        "marker for bytes on the frame's sidecar")
    return marker["bin"]


def bin_slots(response: Any) -> Iterator[Tuple[List[Any], int, int]]:
    """Each ``{"bin": n}`` slot of a response's result, as ``(values,
    index, n)``; a refusal has none."""
    values = response[1] if isinstance(response, list) and \
        len(response) > 1 else None
    if type(values) is list:
        for index, value in enumerate(values):
            if type(value) is dict and len(value) == 1 and \
                    isinstance(value.get("bin"), int):
                yield values, index, value["bin"]


def absorb_sidecar(payload: Any, sidecar: bytes) -> Any:
    """Fold a response frame's sidecar back into its results.

    Every ``{"bin": n}`` slot of a result gets its raw bytes instead,
    consumed from the sidecar in response order.
    """
    bins = BinReader(sidecar)
    for response in payload if is_batch(payload) else (payload,):
        for values, index, n in bin_slots(response):
            values[index] = bins.take(n)
    return payload


# -- request / response shapes ----------------------------------------------

def request(rid: Any, op: str,
            args: Optional[Dict[str, Any]] = None) -> List[Any]:
    """``[rid, op, v1, …]``: ``args`` by name, laid out in the op row's
    ``params`` order.  A name the row does not declare is a
    :class:`TypeError` — raised here, before anything is sent."""
    given = dict(args or ())
    spec = OPS.get(op)
    values = [given.pop(name, None)
              for name, _ in (spec.params if spec is not None else ())]
    if given:
        raise TypeError(f"op {op!r} takes no argument "
                        f"{', '.join(map(repr, given))}")
    while values and values[-1] is None:
        values.pop()
    return [rid, op, *values]


def head(frame: Any) -> Tuple[Any, Any]:
    """A request's ``(rid, op)``, ``None`` for what it lacks."""
    if not isinstance(frame, list):
        return None, None
    return (frame[0] if frame else None,
            frame[1] if len(frame) > 1 else None)


def response(rid: Any, op: str, result: Any,
             events: Optional[List[Dict]] = None) -> List[Any]:
    """``[rid, [v1, …](, events)]``: a handler's result dict laid out
    in the op row's ``results`` order — an open-ended answer whole, in
    its one slot.  A field the row does not declare is not sent."""
    fields = OPS[op].results
    return ok_response(rid, [result] if fields == (WHOLE,) else
                       [result[name] for name in fields], events)


def named_result(op: str, values: Any) -> Any:
    """A result's values named again by the op row: the dict the
    handler returned (its binary slot already absorbed)."""
    spec = OPS.get(op)
    fields = spec.results if spec is not None else ()
    if type(values) is not list or len(values) != len(fields):
        raise WireError(f"a {op!r} result is {len(fields)} values, "
                        f"got {values!r}")
    return values[0] if fields == (WHOLE,) else dict(zip(fields, values))


def _event_values(event: Dict[str, Any]) -> List[Any]:
    kind = event["event"]
    return [kind, *(event[name] for name in EVENTS[kind])]


def named_events(events: Any) -> List[Dict[str, Any]]:
    """A response's events as their ``{"event": kind, …}`` dicts."""
    try:
        return [{"event": kind,
                 **dict(zip(EVENTS[kind], values, strict=True))}
                for kind, *values in events]
    except (KeyError, TypeError, ValueError):
        raise WireError(f"malformed events {events!r}") from None


def ok_response(rid: Any, result: Any,
                events: Optional[List[Dict]] = None) -> List[Any]:
    """``[rid, result(, events)]``, the events laid out by
    :data:`~repro.service.ops.EVENTS`; :func:`response` lays out a
    result."""
    return [rid, result, [_event_values(event) for event in events]] \
        if events else [rid, result]


def error_response(rid: Any, kind: str, message: str,
                   events: Optional[List[Dict]] = None) -> List[Any]:
    return ok_response(rid, f"{kind}: {message}", events)


def error_of(outcome: str) -> Tuple[str, str]:
    """A refusal's ``(kind, message)``."""
    kind, _, message = outcome.partition(": ")
    return kind, message


def refusal(rid: Optional[int], exc: Exception,
            events: Optional[List[Dict]] = None) -> bytes:
    """The encoded error response for a request that raised: typed
    by exception class for the TERP family (:class:`WireError`
    included), ``BadRequest`` for malformed arguments."""
    if isinstance(exc, TerpError):
        return encode_body(error_response(
            rid, type(exc).__name__, str(exc), events))
    return encode_body(error_response(
        rid, "BadRequest", f"malformed arguments: {exc!r}", events))
