"""The storage both observability rings share: one column per field —
a stdlib ``array`` of machine words, or a list (typecode ``"O"``) for
objects — with record ``n`` (from 0) in slot ``n % capacity``."""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Any, Iterator, Sequence

#: Slots each column gains at once while its ring fills.
GROW_BY = 1024


def columns(typecodes: str, capacity: int) -> Sequence[Any]:
    if capacity < 0:
        raise ValueError(f"ring capacity {capacity} is negative")
    return tuple([] if code == "O" else array(code) for code in typecodes)


def grow(cols: Sequence[Any], slots: int) -> None:
    """Give every column :data:`GROW_BY` more slots, up to ``slots``."""
    size = min(slots, len(cols[0]) + GROW_BY)
    for col in cols:
        if isinstance(col, array):
            col.frombytes(bytes((size - len(col)) * col.itemsize))
        else:
            col.extend([None] * (size - len(col)))


def newest_first(written: int, capacity: int) -> Iterator[int]:
    """The slots of the retained records, newest first."""
    head = written % capacity if capacity else 0
    return chain(range(head - 1, -1, -1),
                 range(min(written, capacity) - 1, head - 1, -1))


def newest_first_equal(col: array, value: int, written: int,
                       capacity: int) -> Iterator[int]:
    """:func:`newest_first`, only where a one-byte column holds
    ``value``: a search of the column's bytes, not a loop."""
    data, head = col.tobytes(), written % capacity if capacity else 0
    for low, high in ((0, head), (head, min(written, capacity))):
        pos = data.rfind(value, low, high)
        while pos >= 0:
            yield pos
            pos = data.rfind(value, low, pos)
