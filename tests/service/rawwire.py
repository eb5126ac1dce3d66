"""A raw socket speaking terpd frames, for tests that must bypass the
clients: hand-built hellos, hostile bytes, bursts sent in one
``sendall``.  Reads go through the one thin blocking reader the
protocol module keeps (:func:`repro.service.protocol.recv_frame`
over a :class:`~repro.service.protocol.FrameSplitter`)."""

import socket
from typing import Any, NamedTuple, Optional

from repro.service import protocol


class Reply(NamedTuple):
    """One response frame, read by position: ``[rid, outcome]`` plus
    ``events`` when there are any.  An object outcome is the result, a
    ``[kind, message]`` pair a refusal."""
    rid: Any
    outcome: Any
    events: Optional[list] = None

    @property
    def ok(self):
        return isinstance(self.outcome, dict)

    @property
    def result(self):
        assert self.ok, self
        return self.outcome

    @property
    def error(self):
        """A refusal's ``(kind, message)``."""
        assert not self.ok, self
        return tuple(self.outcome)


def reply(payload):
    """A decoded response frame as a :class:`Reply` — a batch as a
    list of them."""
    if protocol.is_batch(payload):
        return [Reply(*one) for one in payload]
    return Reply(*payload)


class RawWire:
    def __init__(self, port=None, *, sock=None, timeout=10.0):
        self.sock = sock if sock is not None else \
            socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.splitter = protocol.FrameSplitter()

    def send(self, payload, sidecar=None):
        self.sock.sendall(protocol.encode_frame(payload, sidecar))

    def recv(self):
        """``(reply, sidecar)``, or ``None`` on clean EOF."""
        got = protocol.recv_frame(self.sock, self.splitter)
        return None if got is None else \
            (reply(protocol.decode_frame(got[0])), got[1])

    def exchange(self, rid, op, args=None, sidecar=None):
        """One round trip: ``(reply, sidecar)``."""
        self.send(protocol.request(rid, op, args), sidecar)
        return self.recv()

    def hello(self, rid=1, **args):
        response, _ = self.exchange(rid, "hello", dict(
            {"user": "raw", "version": protocol.PROTOCOL_VERSION}, **args))
        return response.result

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.sock.close()
