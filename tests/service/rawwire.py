"""A raw socket speaking terpd frames, for tests that must bypass the
clients: hand-built hellos, hostile bytes, bursts sent in one
``sendall``.  Reads go through the one thin blocking reader the
protocol module keeps (:func:`repro.service.protocol.recv_frame`
over a :class:`~repro.service.protocol.FrameSplitter`)."""

import socket

from repro.service import protocol


class RawWire:
    def __init__(self, port=None, *, sock=None, timeout=10.0):
        self.sock = sock if sock is not None else \
            socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.splitter = protocol.FrameSplitter()

    def send(self, payload, sidecar=None):
        self.sock.sendall(protocol.encode_frame(payload, sidecar))

    def recv(self):
        """``(payload, sidecar)``, or ``None`` on clean EOF."""
        got = protocol.recv_frame(self.sock, self.splitter)
        return None if got is None else \
            (protocol.decode_frame(got[0]), got[1])

    def exchange(self, rid, op, args=None, sidecar=None):
        """One round trip: ``(response, sidecar)``."""
        self.send(protocol.request(rid, op, args), sidecar)
        return self.recv()

    def hello(self, rid=1, **args):
        response, _ = self.exchange(
            rid, "hello", dict({"user": "raw", "version": 2}, **args))
        assert response["ok"], response
        return response["result"]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.sock.close()
