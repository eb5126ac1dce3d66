"""The terpd wire protocol: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  One frame carries either a single request (a
JSON object) or a *batch* (a JSON array of requests); the response
frame mirrors the shape — object for object, array for array, in
order.  Clients may also *pipeline*: send many single-request frames
without waiting, then collect the responses, which the server returns
in request order per connection.

Request::

    {"id": 7, "op": "attach", "args": {"name": "mydata", "access": "rw"}}

Success response::

    {"id": 7, "ok": true, "result": {...}, "events": [...]}

Error response::

    {"id": 7, "ok": false, "error": {"kind": "PmoError", "message": "..."}}

``events`` is only present when the session has pending out-of-band
notifications — today the only kind is ``forced-detach``, emitted when
the sweeper closed one of the session's exposure windows by force.

OIDs travel as their packed 64-bit integer
(:meth:`repro.pmo.object_id.Oid.pack`).  ``hello`` must offer
``"version": 2`` — the only revision there is; anything else (absent
included) is refused with a typed "protocol version N unsupported"
error.  Which ops exist, and which of their fields are binary, is
declared once in :mod:`repro.service.ops`.

**The binary sidecar.**  Binary payloads (PMO data) never enter the
JSON.  A frame may append a *binary sidecar* after the JSON body::

    u32be (SIDECAR_FLAG | body_len) | body | u32be sidecar_len | sidecar

The top bit of the length word marks the sidecar's presence — legal
because ``MAX_FRAME_BYTES`` is far below 2**31.  JSON marks each
binary value with ``{"bin": <len>}``; consumers take ``len`` bytes
off the sidecar in request (or response) order via
:class:`BinReader`.  A batch frame has one combined sidecar: the
concatenation of its items' chunks, in item order.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.core.errors import TerpError

#: Frame header: payload length, 4-byte big-endian unsigned.  The same
#: struct frames the sidecar length word.
HEADER = struct.Struct(">I")
#: Upper bound on a single frame, a sanity guard against a desynced or
#: hostile peer streaming garbage lengths (16 MiB fits any sane batch).
MAX_FRAME_BYTES = 16 * 1024 * 1024
#: Upper bound on a frame's binary sidecar (a batch of large reads).
MAX_SIDECAR_BYTES = 64 * 1024 * 1024
#: The one protocol revision; ``hello`` must offer exactly this.
PROTOCOL_VERSION = 2
#: Top bit of the length word: a binary sidecar follows the body.
SIDECAR_FLAG = 0x80000000
#: Mask recovering the JSON body length from a flagged length word.
LEN_MASK = 0x7FFFFFFF

_SEPARATORS = (",", ":")


class WireError(TerpError):
    """Malformed frame, oversized frame, or truncated stream."""


# -- framing ----------------------------------------------------------------

def encode_body(payload: Any) -> bytes:
    """Serialize a request/response (or batch) to JSON body bytes.

    A batch (list) is sized incrementally: each item is encoded once
    and the running total is checked against ``MAX_FRAME_BYTES``
    *before* the full body is joined, so an oversized batch fails fast
    without materializing the whole frame.  Items that are already
    ``bytes`` are treated as pre-encoded JSON and spliced in as-is —
    the batch response path uses this to encode each response exactly
    once.
    """
    if isinstance(payload, list):
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


def _body_length(word: int) -> int:
    length = word & LEN_MASK
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return length


def _sidecar_length(side_head: bytes) -> int:
    (side_len,) = HEADER.unpack(side_head)
    if side_len > MAX_SIDECAR_BYTES:
        raise WireError(f"sidecar length {side_len} exceeds "
                        f"{MAX_SIDECAR_BYTES}")
    return side_len


def _decoded(got: Optional[Tuple[bytes, bytes]]
             ) -> Optional[Tuple[Any, bytes]]:
    return None if got is None else (decode_frame(got[0]), got[1])


async def read_frame_raw(reader: asyncio.StreamReader
                         ) -> Optional[Tuple[bytes, bytes]]:
    """Read one frame from an asyncio stream, JSON body *undecoded*.

    Returns ``(body_bytes, sidecar_bytes)`` — ``sidecar`` is ``b""``
    for a frame without one — or ``None`` on clean EOF.  A stream that
    ends mid-header, mid-body, or mid-sidecar raises
    :class:`WireError`: truncation is always a typed error, never a
    hang.  The cluster router relays these bytes verbatim, paying no
    decode/re-encode on the fast path.
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireError("stream truncated mid-header") from None
    (word,) = HEADER.unpack(header)
    try:
        body = await reader.readexactly(_body_length(word))
    except asyncio.IncompleteReadError:
        raise WireError("stream truncated mid-frame") from None
    sidecar = b""
    if word & SIDECAR_FLAG:
        try:
            sidecar = await reader.readexactly(_sidecar_length(
                await reader.readexactly(HEADER.size)))
        except asyncio.IncompleteReadError:
            raise WireError("stream truncated mid-sidecar") from None
    return body, sidecar


async def read_frame_ex(reader: asyncio.StreamReader
                        ) -> Optional[Tuple[Any, bytes]]:
    """:func:`read_frame_raw` with the body decoded: ``(payload,
    sidecar)`` or ``None`` on clean EOF."""
    return _decoded(await read_frame_raw(reader))


def recv_frame_raw(sock: socket.socket
                   ) -> Optional[Tuple[bytes, bytes]]:
    """Blocking-socket counterpart of :func:`read_frame_raw`."""
    header = _recv_exactly(sock, HEADER.size, eof_ok=True)
    if header is None:
        return None
    (word,) = HEADER.unpack(header)
    body = _recv_exactly(sock, _body_length(word), eof_ok=False)
    sidecar = b""
    if word & SIDECAR_FLAG:
        sidecar = _recv_exactly(sock, _sidecar_length(_recv_exactly(
            sock, HEADER.size, eof_ok=False)), eof_ok=False)
    return body, sidecar


def recv_frame_ex(sock: socket.socket
                  ) -> Optional[Tuple[Any, bytes]]:
    """Blocking-socket counterpart of :func:`read_frame_ex`."""
    return _decoded(recv_frame_raw(sock))


def send_frame(sock: socket.socket, payload: Any,
               sidecar: Optional[bytes] = None) -> None:
    sock.sendall(encode_frame(payload, sidecar))


def _recv_exactly(sock: socket.socket, n: int, *,
                  eof_ok: bool) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == n:
                return None
            raise WireError("stream truncated")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


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
    if isinstance(payload, list):
        for one in payload:
            _absorb_one(one, bins)
    else:
        _absorb_one(payload, bins)
    return payload


def _absorb_one(response: Any, bins: BinReader) -> None:
    if not isinstance(response, dict):
        return
    result = response.get("result")
    if isinstance(result, dict) and "bin" in result:
        n = result.pop("bin")
        result["data"] = bins.take(int(n))


# -- request / response shapes ----------------------------------------------

def request(rid: int, op: str, args: Optional[Dict[str, Any]] = None) -> Dict:
    return {"id": rid, "op": op, "args": args or {}}


def ok_response(rid: Optional[int], result: Any,
                events: Optional[List[Dict]] = None) -> Dict:
    response: Dict[str, Any] = {"id": rid, "ok": True, "result": result}
    if events:
        response["events"] = events
    return response


def error_response(rid: Optional[int], kind: str, message: str,
                   events: Optional[List[Dict]] = None) -> Dict:
    response: Dict[str, Any] = {
        "id": rid, "ok": False,
        "error": {"kind": kind, "message": message}}
    if events:
        response["events"] = events
    return response


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
