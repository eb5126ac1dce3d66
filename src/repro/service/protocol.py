"""The terpd wire protocol: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Frames carry values, not names: the op table
(:mod:`repro.service.ops`) is the schema.

* **Request** ``[7, "attach", "mydata", "rw"]`` — rid, op, then the
  values in the row's ``params`` order; trailing values not given are
  dropped, an interior one travels as ``null`` ("not given").
* **Response** ``[7, {...}]`` — rid and outcome, plus ``[...]`` events
  as a third element when there are any; an object outcome is the
  result, a ``["PmoError", "message"]`` pair is a refusal.
* **Batch** — an array of requests, answered by an array of responses
  in the same order.

Clients may also *pipeline*: send many single-request frames without
waiting, then collect the responses, which the server returns in
request order per connection.  Events are the session's pending
out-of-band notifications — today only ``forced-detach``, emitted when
the sweeper closed one of its exposure windows by force.

OIDs travel as their packed 64-bit integer
(:meth:`repro.pmo.object_id.Oid.pack`).  ``hello``'s first value is
the wire revision, ``3`` — the only one there is; anything else
(absent included), and any object-shaped frame (revision 2 and
before), is refused with a typed "protocol version N unsupported"
error.

**The binary sidecar.**  Binary payloads (PMO data) never enter the
JSON.  A frame may append a *binary sidecar* after the JSON body::

    u32be (SIDECAR_FLAG | body_len) | body | u32be sidecar_len | sidecar

The top bit of the length word marks the sidecar's presence — legal
because ``MAX_FRAME_BYTES`` is far below 2**31.  JSON marks each
binary value with ``{"bin": <len>}`` — the only object a request
value may be; consumers take ``len`` bytes off the sidecar in request
(or response) order via :class:`BinReader`.  A batch frame has one
combined sidecar: the concatenation of its items' chunks, in item
order.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import TerpError
from repro.service.ops import OPS

#: Frame header: payload length, 4-byte big-endian unsigned.  The same
#: struct frames the sidecar length word.
HEADER = struct.Struct(">I")
#: Upper bound on a single frame, a sanity guard against a desynced or
#: hostile peer streaming garbage lengths (16 MiB fits any sane batch).
MAX_FRAME_BYTES = 16 * 1024 * 1024
#: Upper bound on a frame's binary sidecar (a batch of large reads).
MAX_SIDECAR_BYTES = 64 * 1024 * 1024
#: The one protocol revision; ``hello`` must offer exactly this.
PROTOCOL_VERSION = 3
#: Top bit of the length word: a binary sidecar follows the body.
SIDECAR_FLAG = 0x80000000
#: Mask recovering the JSON body length from a flagged length word.
LEN_MASK = 0x7FFFFFFF
#: What every reader, asyncio transports included, takes per read
#: (their 256 KiB default page-faulted twice per relayed frame).
READ_BYTES = 65536

_SEPARATORS = (",", ":")


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


def encode_body(payload: Any) -> bytes:
    """Serialize a request/response (or batch) to JSON body bytes.

    A batch is sized incrementally: each item is encoded once and the
    running total is checked against ``MAX_FRAME_BYTES`` *before* the
    full body is joined, so an oversized batch fails fast without
    materializing the whole frame.  Items that are already ``bytes``
    are treated as pre-encoded JSON and spliced in as-is — the batch
    response path uses this to encode each response exactly once.
    """
    if is_batch(payload):
        parts: List[bytes] = []
        total = 2                      # the enclosing brackets
        for item in payload:
            part = item if type(item) is bytes else json.dumps(
                item, separators=_SEPARATORS).encode("utf-8")
            total += len(part) + 1     # item + separating comma
            if total - 1 > MAX_FRAME_BYTES:
                raise WireError(
                    f"batch frame exceeds {MAX_FRAME_BYTES} bytes "
                    f"after {len(parts)} of {len(payload)} items")
            parts.append(part)
        return b"[" + b",".join(parts) + b"]"
    body = json.dumps(payload, separators=_SEPARATORS).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds "
                        f"{MAX_FRAME_BYTES}")
    return body


def frame_from_body(body: bytes,
                    sidecar: Optional[bytes] = None) -> bytes:
    """Wrap pre-encoded body bytes (and optional sidecar) in a frame."""
    if not sidecar:
        return HEADER.pack(len(body)) + body
    if len(sidecar) > MAX_SIDECAR_BYTES:
        raise WireError(f"sidecar of {len(sidecar)} bytes exceeds "
                        f"{MAX_SIDECAR_BYTES}")
    return b"".join((HEADER.pack(len(body) | SIDECAR_FLAG), body,
                     HEADER.pack(len(sidecar)), sidecar))


def encode_frame(payload: Any,
                 sidecar: Optional[bytes] = None) -> bytes:
    """Serialize one request/response (or batch) into a wire frame."""
    return frame_from_body(encode_body(payload), sidecar)


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


def absorb_sidecar(payload: Any, sidecar: bytes) -> Any:
    """Fold a response frame's sidecar back into its results.

    Every result carrying a ``{"bin": n}`` marker gets its raw bytes
    under ``"data"`` instead, consumed from the sidecar in response
    order.
    """
    bins = BinReader(sidecar)
    for response in payload if is_batch(payload) else (payload,):
        result = result_of(response)
        if result is not None and "bin" in result:
            result["data"] = bins.take(int(result.pop("bin")))
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


def ok_response(rid: Any, result: Dict[str, Any],
                events: Optional[List[Dict]] = None) -> List[Any]:
    return [rid, result, events] if events else [rid, result]


def error_response(rid: Any, kind: str, message: str,
                   events: Optional[List[Dict]] = None) -> List[Any]:
    return [rid, [kind, message], events] if events \
        else [rid, [kind, message]]


def result_of(response: Any) -> Optional[Dict[str, Any]]:
    """A response's result object; ``None`` for a refusal."""
    if isinstance(response, list) and len(response) > 1 and \
            isinstance(response[1], dict):
        return response[1]
    return None


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
