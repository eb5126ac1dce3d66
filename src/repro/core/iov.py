"""Gather writes: many buffers out through one call, none joined.

A psync batch is a list of page images.  The journal file, the home
slots and the replication socket each take that list as it is, through
a vectored call (``os.writev``, ``os.pwritev``, ``socket.sendmsg``),
never as one joined copy of it.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List

__all__ = ["IOV_MAX", "write_gathered", "pwrite_gathered"]

#: Most buffers one vectored call accepts (the kernel's IOV_MAX).
IOV_MAX = os.sysconf("SC_IOV_MAX")


def write_gathered(write: Callable[[List[Any]], int],
                   parts: List[Any]) -> None:
    """Pass every byte of ``parts`` through ``write``, a vectored call
    that returns how many bytes it took: at most :data:`IOV_MAX`
    buffers a call, and a short write resumed inside the buffer it
    stopped in.  ``parts`` is consumed."""
    first = 0
    while first < len(parts):
        done = write(parts[first:first + IOV_MAX])
        while first < len(parts) and done >= len(parts[first]):
            done -= len(parts[first])
            first += 1
        if done:
            parts[first] = memoryview(parts[first])[done:]


def pwrite_gathered(fd: int, parts: List[Any], offset: int) -> None:
    """:func:`write_gathered` through ``os.pwritev`` at ``offset``."""
    def write(buffers: List[Any]) -> int:
        nonlocal offset
        done = os.pwritev(fd, buffers, offset)
        offset += done
        return done

    write_gathered(write, parts)
