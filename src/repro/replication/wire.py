"""The replication wire: length-prefixed header+payload frames.

The shipper and applier speak a dedicated binary protocol on their own
socket — never the client protocol, so replication traffic cannot
starve (or be starved by) request traffic.  Every message is one
frame::

    u32 total_len | u32 header_len | header JSON | payload bytes

The JSON header carries the message type and metadata; bulk page
images ride the binary payload untouched (the same split the
client protocol's sidecar makes for reads and writes).  Message types:

``hello`` / ``hello-ack``
    version negotiation, sent once per connection in each direction.
``reset``
    primary → standby, first frame of every bootstrap: the complete
    list of registered PMO names.  The applier deletes mirrored pool
    files *not* in the list and restarts its mirrored session journal
    (the primary re-ships the journal in full right after) — so a
    destroy that raced a disconnect, or a stale prior generation in
    the standby's directory, can never survive into a promotion.
``header``
    one PMO's 4096-byte durable file header (payload), shipped at
    registration and again on every bootstrap.  Applying a header
    truncates the mirrored file to the bare header: stale pages never
    outlive the snapshot that follows.
``batch``
    one committed group-commit batch: PMO name/id, the committed
    ``flush_seq``, the previous shipped seq (``prev``, so the applier
    can verify the stream is gapless), and ``pages`` as
    ``[index, crc32]`` pairs whose 4096-byte images are concatenated
    in the payload.  ``prev == -1`` resets the chain (a bootstrap
    snapshot).
``journal``
    one session-journal record, mirrored verbatim so a promoted
    standby recovers sessions/epoch exactly as a warm restart would.
    Queued on the corked socket (``TCP_CORK``): it leaves in the
    segment of the next pushed frame, usually a ``batch``.
``destroy``
    a PMO's durable files were destroyed on the primary.
``ack``
    standby → primary: the named batch's journal is committed and
    fsynced on the standby — recovery there replays it — sent before
    the standby writes the batch's home slots.
``promote`` / ``promoted``
    control: turn the standby into a live terpd on the given port.
``status`` / ``status-ack``
    control: what the standby has applied so far.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from repro.core.errors import TerpError

__all__ = ["ReplicationWireError", "send_msg", "recv_msg",
           "REPL_PROTOCOL_VERSION", "MAX_FRAME_BYTES"]

#: Replication protocol revision (independent of the client protocol).
#: v2 added the reconciling ``reset`` frame and truncate-on-header.
REPL_PROTOCOL_VERSION = 2

#: Frame size guard: a batch is at most ``max_batch`` merged snapshots
#: of 4KB pages; 64 MiB leaves generous headroom over any legal batch.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class ReplicationWireError(TerpError):
    """A malformed or oversized replication frame."""


def send_msg(sock: socket.socket, header: Dict[str, Any],
             payload: bytes = b"") -> None:
    """Send one frame (blocking, complete)."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    total = _LEN.size + len(head) + len(payload)
    if total > MAX_FRAME_BYTES:
        raise ReplicationWireError(
            f"replication frame of {total} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound")
    sock.sendall(_LEN.pack(total) + _LEN.pack(len(head)) + head
                 + payload)


def _recv_exactly(sock: socket.socket, n: int) -> Optional[bytes]:
    parts = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            return None
        parts.append(chunk)
        got += len(chunk)
    return b"".join(parts)


def recv_msg(sock: socket.socket
             ) -> Optional[Tuple[Dict[str, Any], bytes]]:
    """Receive one frame; ``None`` on orderly EOF at a frame boundary."""
    raw_len = _recv_exactly(sock, _LEN.size)
    if raw_len is None:
        return None
    (total,) = _LEN.unpack(raw_len)
    if total < _LEN.size or total > MAX_FRAME_BYTES:
        raise ReplicationWireError(
            f"replication frame length {total} out of bounds")
    body = _recv_exactly(sock, total)
    if body is None:
        raise ReplicationWireError("connection died mid-frame")
    (head_len,) = _LEN.unpack_from(body, 0)
    if head_len > total - _LEN.size:
        raise ReplicationWireError(
            f"header length {head_len} exceeds frame body")
    try:
        header = json.loads(body[_LEN.size:_LEN.size + head_len])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReplicationWireError(
            f"undecodable frame header: {exc}") from exc
    if not isinstance(header, dict) or "t" not in header:
        raise ReplicationWireError("frame header must be an object "
                                   "with a 't' field")
    return header, body[_LEN.size + head_len:]
