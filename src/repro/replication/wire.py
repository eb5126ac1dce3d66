"""The replication link: rows of :data:`MESSAGES` in the client frame.

The shipper and applier speak on their own socket — never a client
connection, so replication traffic cannot starve (or be starved by)
request traffic — but in the client wire's one frame layout
(:mod:`repro.service.protocol`, with its bounds)::

    u32be (SIDECAR_FLAG | body_len) | body | u32be sidecar_len | sidecar

The body is ``[kind_index, v1, …]``: the kind as its row's position
in :data:`MESSAGES` — a closed vocabulary travels as its index, on this
link as on the client's — then the values of its row in order.  Bulk
page images ride the sidecar untouched.  :func:`send_msg` and
:func:`recv_msg` take and give a message as ``{"t": kind, field:
value, …}`` — named at the API, laid out by its row on the wire.  A
frame whose kind no row names, whose values do not fill its row in
number and JSON type, or that breaks the layout's bounds is a
:class:`ReplicationWireError` on either end, which drops the link: the
shipper reconnects and bootstraps.
"""

from __future__ import annotations

import json
import mmap
import socket
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import TerpError
from repro.core.iov import write_gathered
from repro.obs.ring import dumps
from repro.service.ops import entry
from repro.service.protocol import (
    HEADER, LEN_MASK, MAX_FRAME_BYTES, MAX_SIDECAR_BYTES, SIDECAR_FLAG)

__all__ = ["ReplicationWireError", "MESSAGES", "send_msg", "recv_msg",
           "Buffer", "REPL_PROTOCOL_VERSION"]

#: Replication protocol revision (independent of the client protocol).
#: v3 laid messages out by their :data:`MESSAGES` row in the client
#: wire's frame; v4 sends the kind as its row's index.
REPL_PROTOCOL_VERSION = 4

#: Every message of the link: its kind, then its fields in wire order,
#: each with the JSON type its value must decode to.  A payload, where
#: a message has one, is the frame's sidecar.  A kind travels as its
#: row's position here: rows are appended, never reordered.
MESSAGES: Dict[str, Tuple[Tuple[str, type], ...]] = {
    # Once per link each way; a refused version ends the link.
    "hello": (("version", int),),
    "hello-ack": (("ok", bool), ("version", int)),
    # First of every bootstrap: the registered PMOs, the only ones
    # whose mirrors survive it (``JournalApplier.apply_reset``).
    "reset": (("pmos", list),),
    # A PMO's durable file header (payload): it truncates the mirror.
    "header": (("pmo", str),),
    # One committed batch, ``(prev, seq]`` of the PMO's chain
    # (``prev == -1`` resets it: a bootstrap snapshot); ``pages`` are
    # ``[index, crc32]`` pairs whose images, in order, are the payload.
    "batch": (("pmo", str), ("pmo_id", int), ("seq", int),
              ("prev", int), ("pages", list)),
    # A session-journal record, mirrored verbatim (corked).
    "journal": (("line", dict),),
    "destroy": (("pmo", str),),
    # Standby → primary: the batch's journal is fsynced on the standby.
    "ack": (("pmo", str), ("seq", int)),
    # Come up as a live terpd on ``port``, ``service`` overriding the
    # standby's settings; answered ``promoted``, or ``error``: why not.
    "promote": (("port", int), ("service", dict)),
    "promoted": (("port", int),),
    "error": (("error", str),),
}

#: The kinds by wire index, and each kind's index.
KINDS: Tuple[str, ...] = tuple(MESSAGES)
_KIND_INDEX: Dict[str, int] = {kind: index
                               for index, kind in enumerate(KINDS)}

#: Bodies and sidecars up to this size are received into a heap
#: buffer; larger ones into an anonymous mapping (:func:`recv_msg`).
_EAGER_BYTES = 64 * 1024

#: What a frame's payload may be made of.
Buffer = Union[bytes, bytearray, memoryview]


class ReplicationWireError(TerpError):
    """A malformed or oversized replication frame."""


def send_msg(sock: socket.socket, message: Dict[str, Any],
             payload: Union[Buffer, Sequence[Buffer]] = b"") -> None:
    """Send one message (blocking, complete), laid out by its row; a
    ``message`` whose fields are not its row's is a :class:`TypeError`.
    ``payload`` is one buffer or a sequence of them — a batch's page
    images — sent as the sidecar through one gather ``sendmsg``, never
    joined: the bytes on the wire are the joined frame's all the same."""
    kind = message["t"]
    names = [name for name, _ in MESSAGES[kind]]
    if message.keys() != {"t", *names}:
        raise TypeError(f"a {kind!r} message is {names}: {message!r}")
    body = dumps([_KIND_INDEX[kind], *(message[name] for name in names)])
    parts: List[Buffer] = [payload] if isinstance(
        payload, (bytes, bytearray, memoryview)) else list(payload)
    side = sum(map(len, parts))
    if len(body) > MAX_FRAME_BYTES or side > MAX_SIDECAR_BYTES:
        raise ReplicationWireError(
            f"a {kind!r} frame of {len(body)} + {side} bytes exceeds "
            f"the {MAX_FRAME_BYTES} + {MAX_SIDECAR_BYTES}-byte bounds")
    parts.insert(0, HEADER.pack(len(body) | SIDECAR_FLAG) + body
                 + HEADER.pack(side) if side else
                 HEADER.pack(len(body)) + body)
    write_gathered(sock.sendmsg, parts)


def _recv_into(sock: socket.socket, view: memoryview) -> int:
    """Fill ``view`` from ``sock``; how much of it came before EOF."""
    got = 0
    while got < len(view) and (n := sock.recv_into(view[got:])):
        got += n
    return got


def _recv_part(sock: socket.socket, size: int, bound: int) -> memoryview:
    """The frame's next ``size`` bytes, refused past ``bound``.  Past
    :data:`_EAGER_BYTES` they are received into an anonymous mapping,
    whose pages become resident only as bytes arrive: a length word
    alone commits no memory, whatever it announces."""
    if size > bound:
        raise ReplicationWireError(
            f"replication frame part of {size} bytes exceeds {bound}")
    view = memoryview(bytearray(size) if size <= _EAGER_BYTES else
                      mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE))
    if _recv_into(sock, view) < size:
        raise ReplicationWireError("connection died mid-frame")
    return view


def _message(body: memoryview) -> Dict[str, Any]:
    """A frame body as its message, its values checked against its
    kind's row."""
    try:
        frame = json.loads(bytes(body))
    except (ValueError, RecursionError) as exc:
        raise ReplicationWireError(f"undecodable frame: {exc}") from None
    index, *values = frame if type(frame) is list and frame else [None]
    kind = entry(KINDS, index)
    row = MESSAGES[kind] if kind is not None else ()
    if not row or len(values) != len(row) or any(
            type(value) is not expected
            for value, (_, expected) in zip(values, row)):
        raise ReplicationWireError(
            f"malformed {kind!r} frame: {frame!r} is not its row "
            f"{[(name, typ.__name__) for name, typ in row]}")
    return {"t": kind, **{name: value
                          for (name, _), value in zip(row, values)}}


def recv_msg(sock: socket.socket
             ) -> Optional[Tuple[Dict[str, Any], memoryview]]:
    """Receive one message; ``None`` on orderly EOF at a frame
    boundary.  The payload is a view of the buffer the sidecar was
    received into (empty when the frame has none)."""
    word = memoryview(bytearray(HEADER.size))
    got = _recv_into(sock, word)
    if not got:
        return None
    if got < HEADER.size:
        raise ReplicationWireError("connection died mid-frame")
    (length,) = HEADER.unpack(word)
    body = _recv_part(sock, length & LEN_MASK, MAX_FRAME_BYTES)
    payload = memoryview(b"")
    if length & SIDECAR_FLAG:
        (side,) = HEADER.unpack(_recv_part(sock, HEADER.size, HEADER.size))
        payload = _recv_part(sock, side, MAX_SIDECAR_BYTES)
    return _message(body), payload
