"""The storage both observability rings share: one column per field —
a stdlib ``array`` of machine words, or a list (typecode ``"O"``) for
objects — with record ``n`` (from 0) in slot ``n % capacity``.

Each ring has one row reader, which copies the rows it picks into a
:class:`Snapshot` under the ring's lock; what is made of them — a dict
per row, or the text the wire's encoder would make of that dict
(:func:`object_template` and the encoders beside it) — is made from
the snapshot, with no lock held."""

from __future__ import annotations

import json
from array import array
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, Sequence, Tuple

#: Slots each column gains at once while its ring fills.
GROW_BY = 1024

_ENCODE = json.JSONEncoder(separators=(",", ":")).encode


def dumps(value: Any) -> bytes:
    """``json.dumps(value, separators=(",", ":"))``, as bytes."""
    return _ENCODE(value).encode()


def number(value: Any) -> bytes:
    """:func:`dumps` of a number field: an exact int (what a column
    holds) formatted directly; ``None``, or what only the spill table
    could keep (a float), by the encoder."""
    return b"%d" % value if type(value) is int else dumps(value)


def literal(value: Any) -> bytes:
    """:func:`dumps`, each ``%`` doubled: a constant in a format a
    row's own values are ``%``-formatted into."""
    return dumps(value).replace(b"%", b"%%")


def object_template(fields: Iterable[str]) -> bytes:
    """The JSON object text of a row with these keys, in this order,
    a ``%b`` where each value goes."""
    return b"{" + b",".join(dumps(field) + b":%b" for field in fields) \
        + b"}"


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


class Snapshot:
    """The rows a ring's reader picked, copied out of its columns under
    its lock — machine words into arrays of the same typecodes, objects
    by reference — and kept oldest first: ``slots`` are the rows' slots
    in the ring, ``cols`` the ring's columns for those rows alone, and
    ``spill`` the numbers of a row (by its index here) that the ring
    kept in its spill table.  A row costs its columns' bytes; its text
    is made later, as often as it is needed, and the ring goes on being
    appended to meanwhile."""

    __slots__ = ("slots", "cols", "spill")

    def __init__(self, cols: Sequence[Any], spill: Dict[int, Tuple],
                 slots: Iterable[int]) -> None:
        picked = array("q", slots)        # newest first, as read
        picked.reverse()
        self.slots = picked
        self.cols = tuple(
            array(col.typecode, map(col.__getitem__, picked))
            if isinstance(col, array) else list(map(col.__getitem__, picked))
            for col in cols)
        self.spill = {row: spill[slot] for row, slot in enumerate(picked)
                      if slot in spill} if spill else {}
