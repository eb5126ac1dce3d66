"""Compact JSON as bytes: the one encoder both wires and both rings use.

It lives in ``core`` so that a process which only speaks a wire — a
warm standby applying shipped batches — can encode a frame without
loading the observability package the rings belong to.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["dumps"]

_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def dumps(value: Any) -> bytes:
    """``json.dumps(value, separators=(",", ":"))``, as bytes."""
    return _ENCODE(value).encode()
