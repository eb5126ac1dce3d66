"""The terpd wire protocol: length-prefixed JSON frames.

A frame is a head saying its lengths, then that many bytes of UTF-8
JSON, then its binary sidecar, if any (below).  Frames carry values,
not names, both ways: the op table (:mod:`repro.service.ops`) is the
schema, and a name drawn from one of its closed tables travels as its
index in that table.

* **Request** ``[7, 11, "mydata"]`` — rid, the op's row index in
  :data:`~repro.service.ops.OPS` (``11`` is ``attach``), then the
  values in the row's ``params`` order; trailing values not given, or
  equal to their row default, are dropped (``attach``'s ``"rw"``), an
  interior one not given travels as ``null``.
* **Response** ``[7, [0, 0]]`` — rid and outcome, plus ``[...]``
  events as a third element when there are any.  The outcome's JSON
  type tells the two kinds apart: an *array* is a result, the values
  in the row's ``results`` order (an open-ended answer — ``metrics``,
  ``trace``, ``repl_status`` — is one object in its one slot); a
  *string* is a refusal, ``"PmoError: message"``: the error kind,
  ``": "``, the message.  ``[0, 0]`` is ``attach``'s ``performed``,
  ``"case 1: first attach"``.
* **Event** ``[0, "mydata", 3, 51200, 9]`` — the kind's index in
  :data:`~repro.service.ops.EVENTS` (``forced-detach``), then its
  row's values in order.
* **Closed vocabularies** — a field of
  :data:`~repro.service.ops.VOCABULARIES` (``outcome``, ``reason``)
  travels as its value's index in the field's table, or as the text
  itself when the table does not have it (``9`` is ``"session EW
  budget elapsed"``; a reason made up at run time stays a string).
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
the wire revision, ``6`` — the only one there is; anything else
(absent included), an op sent by name (revision 4 and before), and
any object-shaped frame (revision 2 and before), is refused with a
typed "protocol version N unsupported" error.  A peer still framing
as revision 5 did (a four-byte length word) gets no typed refusal:
its first frame, the hello, has no sidecar, so its length word starts
with a 0 byte, which reads as a head announcing an empty body — a
:class:`WireError` — and the connection is dropped.

**The head and the binary sidecar.**  Binary payloads (PMO data) never
enter the JSON; they ride the frame's *binary sidecar*, after the
body::

    varint(body_len << 1 | has_sidecar) [varint(sidecar_len)] | body | sidecar

A varint is QUIC's (RFC 9000 §16): the first byte's top two bits say
whether it is 1, 2 or 4 bytes long (``00``, ``01``, ``10``), the rest
is the value, big-endian — up to 63, 16 383 and 2**30 - 1.  Both
lengths come before the body, so a reader checks both bounds from the
head alone (:func:`parse_head`; :func:`pack_head` writes one).  The
op row says which value is binary (``bin_arg``, ``bin_result``): its
slot in the JSON holds the byte count, a bare int, and consumers take
that many bytes off the sidecar in request (or response) order via
:class:`BinReader`.  A batch frame has one combined sidecar: the
concatenation of its items' chunks, in item order.
"""

from __future__ import annotations

import json
import socket
from itertools import chain
from typing import (
    TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple, Union)

from repro.core.errors import TerpError
from repro.core.jsonbytes import dumps as _dumps
from repro.service.ops import (
    EVENT_KINDS, EVENTS, OP_INDEX, OPS, VOCABULARIES, WHOLE, Op, entry,
    op_row)

if TYPE_CHECKING:
    # An annotation only: a standby speaks the frame without asyncio.
    import asyncio

#: Upper bound on a single frame, a sanity guard against a desynced or
#: hostile peer streaming garbage lengths (16 MiB fits any sane batch).
MAX_FRAME_BYTES = 16 * 1024 * 1024
#: Upper bound on a frame's binary sidecar (a batch of large reads).
MAX_SIDECAR_BYTES = 64 * 1024 * 1024
#: The one protocol revision; ``hello`` must offer exactly this.
PROTOCOL_VERSION = 6
#: What every reader, asyncio transports included, takes per read
#: (their 256 KiB default page-faulted twice per relayed frame).
READ_BYTES = 65536


class WireError(TerpError):
    """Malformed frame, oversized frame, or truncated stream."""


# -- the head ----------------------------------------------------------------

#: A varint's size and value mask by its first byte's top two bits; an
#: 8-byte form (``11``) announces more than any bound allows.
_FORMS = ((1, 0x3F), (2, 0x3FFF), (4, 0x3FFF_FFFF), None)


def _varint(n: int) -> bytes:
    """``n`` (below 2**30) in its shortest form."""
    if n < 0x40:
        return bytes((n,))
    if n < 0x4000:
        return (n | 0x4000).to_bytes(2, "big")
    return (n | 0x8000_0000).to_bytes(4, "big")


def pack_head(body_len: int, side_len: int = 0) -> bytes:
    """The head of a frame with a ``body_len``-byte body and a
    ``side_len``-byte sidecar (none when 0); what :func:`parse_head`
    would refuse is a :class:`WireError` here."""
    if not 0 < body_len <= MAX_FRAME_BYTES:
        raise WireError(f"frame body of {body_len} bytes is outside "
                        f"1..{MAX_FRAME_BYTES}")
    if side_len > MAX_SIDECAR_BYTES:
        raise WireError(f"sidecar of {side_len} bytes exceeds "
                        f"{MAX_SIDECAR_BYTES}")
    if not side_len:
        return _varint(body_len << 1)
    return _varint(body_len << 1 | 1) + _varint(side_len)


def _parse_varint(buf: Any, at: int) -> Tuple[int, int]:
    """The varint at ``buf[at]`` (which must exist): ``(size,
    value)``, the value -1 while ``buf`` ends inside it."""
    form = _FORMS[buf[at] >> 6]
    if form is None:
        raise WireError(f"an 8-byte length form ({buf[at]:#04x}): no "
                        "frame part is that long")
    size, mask = form
    if at + size > len(buf):
        return size, -1
    return size, int.from_bytes(buf[at:at + size], "big") & mask


def parse_head(buf: Any, pos: int = 0) -> Tuple[int, int, int]:
    """The head at ``buf[pos:]`` as ``(head_len, body_len,
    side_len)``, ``side_len`` 0 for a frame without a sidecar.  Until
    ``buf`` holds the whole head, ``body_len`` is -1 and ``head_len``
    is as much of the head as the bytes already in tell: a blocking
    reader may take that many without reading past it, then ask again.
    An empty or oversize body is a :class:`WireError` as soon as its
    varint is in, an oversize sidecar as soon as its own is — before a
    byte of either is waited for."""
    if pos >= len(buf):
        return 1, -1, -1
    size, word = _parse_varint(buf, pos)
    if word < 0:
        return size, -1, -1
    body = word >> 1
    if not 0 < body <= MAX_FRAME_BYTES:
        raise WireError(f"frame length {body} is outside "
                        f"1..{MAX_FRAME_BYTES}")
    if not word & 1:
        return size, body, 0
    if pos + size >= len(buf):
        return size + 1, -1, -1
    side_size, side = _parse_varint(buf, pos + size)
    if side > MAX_SIDECAR_BYTES:
        raise WireError(f"sidecar length {side} exceeds "
                        f"{MAX_SIDECAR_BYTES}")
    return size + side_size, body if side >= 0 else -1, side


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
    one join with the frame head (:func:`frame_from_body`).

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
        self.parts = [pack_head(sum(map(_length, body)),
                                len(sidecar) if sidecar else 0), *body]
        if sidecar:
            self.parts.append(sidecar)
        self.size = sum(map(_length, self.parts))

    def __len__(self) -> int:
        return self.size

    def __bytes__(self) -> bytes:
        return b"".join(self.chunks())

    def chunks(self, limit: int = READ_BYTES) -> Iterator[bytes]:
        """The frame's bytes in order, in chunks of at most ``limit``:
        pieces gathered, one longer than a chunk cut.  Every chunk is a
        new object, never changed once handed out.  The head promised
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
    optional sidecar in a frame: one join, head included; a
    :class:`StreamedFrame` when the body has a sized part."""
    parts = [body] if isinstance(body, bytes) else body
    try:
        size = sum(map(len, parts))
    except TypeError:                 # a sized part, which has no len()
        return StreamedFrame(parts, sidecar)
    if not sidecar:
        return b"".join([pack_head(size), *parts])
    return b"".join([pack_head(size, len(sidecar)), *parts, sidecar])


def encode_frame(payload: Any,
                 sidecar: Optional[bytes] = None) -> bytes:
    """Serialize one request/response (or batch) into a wire frame."""
    return bytes(frame_from_body(body_parts(payload), sidecar))


def decode_frame(body: bytes) -> Any:
    """Parse a frame body (the bytes after its head)."""
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8 or bad JSON; RecursionError: nesting
        # deeper than the parser goes.
        raise WireError(f"undecodable frame: {exc}") from None


class FrameSplitter:
    """The one parser of the head/sidecar layout, doing no I/O.

    :meth:`feed` it whatever the transport read — half a frame, a
    pipelined burst — and it hands out the complete ``(body,
    sidecar)`` frames (``sidecar`` is ``b""`` for a frame without one;
    the JSON body stays undecoded, so the cluster router can relay it
    verbatim).  A head is checked as soon as its bytes are in
    (:func:`parse_head`): an empty or oversize body, or an oversize
    sidecar, is a :class:`WireError` from the head alone, before a
    byte of either is waited for.  A stream that ends mid-frame is
    the same typed error, from :meth:`eof`.
    """

    __slots__ = ("_buf", "_pos")

    def __init__(self) -> None:
        self._buf = bytearray()        # unparsed input, from _pos on
        self._pos = 0

    def feed(self, data: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Take in what a read returned; iterate the frames it
        completed (a bad head raises at its turn, after the frames
        ahead of it were handed out)."""
        if self._pos:
            del self._buf[:self._pos]
            self._pos = 0
        self._buf += data
        return iter(self.next_frame, None)

    def next_frame(self) -> Optional[Tuple[bytes, bytes]]:
        """The next complete frame, or ``None`` until more is fed."""
        buf, pos = self._buf, self._pos
        head, body, side = parse_head(buf, pos)
        body_at = pos + head
        end = body_at + body + side
        if body < 0 or end > len(buf):
            return None
        self._pos = end
        return (bytes(buf[body_at:body_at + body]),
                bytes(buf[body_at + body:end]))

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
    order; an underrun — a count claiming more bytes than the sidecar
    holds — is a typed :class:`WireError`.  A request whose count
    cannot be read (:meth:`lose`) leaves the cursor where the next
    request's bytes may not start: from then on every take is refused,
    so nothing is read off a misaligned cursor.
    """

    __slots__ = ("_buf", "_pos", "_size", "_lost")

    def __init__(self, buf: bytes) -> None:
        self._buf = buf
        self._pos = 0
        self._size = len(buf)
        self._lost: Optional[str] = None

    def take(self, n: int) -> bytes:
        pos = self._pos
        if self._lost is not None:
            raise WireError(f"sidecar cursor lost: {self._lost}")
        if n < 0 or pos + n > self._size:
            self.lose(f"need {n} bytes at offset {pos} of {self._size}")
            raise WireError(f"sidecar underrun: {self._lost}")
        self._pos = pos + n
        return self._buf[pos:pos + n]

    def lose(self, why: str) -> None:
        """Refuse every later take: where this frame's next binary
        chunk starts is no longer known (``why``)."""
        if self._lost is None:
            self._lost = why

    @property
    def remaining(self) -> int:
        return self._size - self._pos


def bin_length(value: Any) -> int:
    """The byte count a binary slot holds: a non-negative int, else
    a :class:`WireError`."""
    if type(value) is not int or value < 0:
        raise WireError(f"a binary slot holds its byte count on the "
                        f"frame's sidecar, not {value!r}")
    return value


def bin_result(spec: Optional[Op], response: Any
               ) -> Tuple[Optional[List[Any]], int]:
    """Where a response to ``spec``'s op holds its binary result:
    ``(values, n)`` — the result's values and the byte count in their
    ``bin_result`` slot — or ``(None, 0)`` for a refusal, or a row
    without one."""
    at = spec.bin_slot if spec is not None else None
    values = response[1] if at is not None and \
        type(response) is list and len(response) > 1 else None
    if type(values) is not list or at >= len(values):
        return None, 0
    return values, bin_length(values[at])


def absorb(op: Optional[str], response: Any, bins: BinReader) -> None:
    """Put a response's binary result in its slot, in place of its
    count: the bytes, taken off ``bins``."""
    spec = OPS.get(op)
    values, n = bin_result(spec, response)
    if values is not None:
        values[spec.bin_slot] = bins.take(n)


def absorb_sidecar(payload: Any, sidecar: bytes) -> Any:
    """A response frame's payload, its binary slots left holding their
    counts: which slot is binary is said by the op each response
    answers, which a frame does not carry — a client that knows it
    takes each slot's bytes with :func:`absorb`.  Kept so callers of
    the revision-5 entry still run."""
    return payload


# -- request / response shapes ----------------------------------------------

#: Per field of :data:`~repro.service.ops.VOCABULARIES`: each text of
#: its table by its index.
_CODES: Dict[str, Dict[str, int]] = {
    field: {text: index for index, text in enumerate(table)}
    for field, table in VOCABULARIES.items()}


def _coded(name: str, value: Any) -> Any:
    """A field's value as it travels: a closed vocabulary's text as its
    index, anything else as it is."""
    codes = _CODES.get(name)
    return value if codes is None or type(value) is not str \
        else codes.get(value, value)


def _named(name: str, value: Any) -> Any:
    """A field's value as it arrived, read back: an index into the
    field's vocabulary is its text."""
    table = VOCABULARIES.get(name)
    if table is None or type(value) is not int:
        return value
    text = entry(table, value)
    if text is None:
        raise WireError(f"{name} index {value} is not in its table "
                        f"of {len(table)}")
    return text


def request(rid: Any, op: str,
            args: Optional[Dict[str, Any]] = None) -> List[Any]:
    """``[rid, op_index, v1, …]``: ``args`` by name, laid out in the op
    row's ``params`` order, trailing values not given or equal to their
    row default left off.  A name the row does not declare is a
    :class:`TypeError` — raised here, before anything is sent; an op
    no row names is sent as given, for the peer to refuse."""
    given = dict(args or ())
    spec = OPS.get(op)
    params = spec.params if spec is not None else ()
    values = [given.pop(name, None) for name, _ in params]
    if given:
        raise TypeError(f"op {op!r} takes no argument "
                        f"{', '.join(map(repr, given))}")
    while values and (values[-1] is None or
                      values[-1] == params[len(values) - 1][1]):
        values.pop()
    return [rid, OP_INDEX.get(op, op), *values]


def head(frame: Any) -> Tuple[Any, Optional[str]]:
    """A request's ``(rid, op name)``: ``None`` for what it lacks, and
    for an op slot that is no row's index."""
    if not isinstance(frame, list):
        return None, None
    spec = op_row(frame[1]) if len(frame) > 1 else None
    return (frame[0] if frame else None,
            spec.name if spec is not None else None)


def response(rid: Any, op: str, result: Any,
             events: Optional[List[Dict]] = None) -> List[Any]:
    """``[rid, [v1, …](, events)]``: a handler's result dict laid out
    in the op row's ``results`` order — an open-ended answer whole, in
    its one slot.  A field the row does not declare is not sent."""
    fields = OPS[op].results
    return ok_response(rid, [result] if fields == (WHOLE,) else
                       [_coded(name, result[name]) for name in fields],
                       events)


def named_result(op: str, values: Any) -> Any:
    """A result's values named again by the op row: the dict the
    handler returned (its binary slot already absorbed)."""
    spec = OPS.get(op)
    fields = spec.results if spec is not None else ()
    if type(values) is not list or len(values) != len(fields):
        raise WireError(f"a {op!r} result is {len(fields)} values, "
                        f"got {values!r}")
    return values[0] if fields == (WHOLE,) else {
        name: _named(name, value) for name, value in zip(fields, values)}


#: An event kind's wire index.
_KIND_INDEX = {kind: index for index, kind in enumerate(EVENT_KINDS)}


def _event_values(event: Dict[str, Any]) -> List[Any]:
    kind = event["event"]
    return [_KIND_INDEX[kind],
            *(_coded(name, event[name]) for name in EVENTS[kind])]


def named_events(events: Any) -> List[Dict[str, Any]]:
    """A response's events as their ``{"event": kind, …}`` dicts."""
    named = []
    try:
        for index, *values in events:
            kind = entry(EVENT_KINDS, index)
            if kind is None:
                raise ValueError(f"no event kind {index!r}")
            named.append({"event": kind, **{
                name: _named(name, value) for name, value
                in zip(EVENTS[kind], values, strict=True)}})
    except (TypeError, ValueError):
        raise WireError(f"malformed events {events!r}") from None
    return named


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
