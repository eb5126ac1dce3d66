"""The one ring both observability logs are: a
:class:`~repro.obs.tracing.Tracer`'s spans and an
:class:`~repro.obs.audit.AuditTimeline`'s events are two :class:`Ring`s.

A ring keeps one column per field — a stdlib ``array`` of machine
words, or a list (typecode ``"O"``) for objects — with record ``n``
(from 0) in slot ``n % capacity``; ``n + 1`` is its seq.  Its leading
``q`` columns hold numbers: an exact int, or None as :data:`NONE`; a
record with any other number (a float clock, 2**63 and past,
:data:`NONE` itself) keeps its numbers in the spill table.  A column of
another typecode holds codes into its table of the objects it has held;
a ``B`` one is the kind column, which a read searches as bytes.

:meth:`Ring.read` copies the rows it picks into :class:`Rows` under
:attr:`Ring.lock`; their dicts and their ``trace`` text are made of the
copy with no lock held, from one statement of the row: its field names
and the function that makes its columns."""

from __future__ import annotations

import threading
from array import array
from functools import partial
from itertools import chain, islice
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
    Tuple)

from repro.core.jsonbytes import dumps

#: Slots each column gains at once while its ring fills.
GROW_BY = 1024
#: Stands for None in a number column.
NONE = -2 ** 63
_DECODE_NONE = {NONE: None}.get


class Ring:
    """The newest ``capacity`` records of rows named ``fields``, kept in
    columns of ``typecodes``.  ``row(seqs, *columns)`` makes the
    columns of a read's rows, in ``fields`` order, of their seqs and
    the ring's columns (codes looked up), each an iterable: a row is
    made of columns in C, with no Python call per row."""

    def __init__(self, fields: Sequence[str], typecodes: str,
                 row: Callable[..., Tuple], capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"ring capacity {capacity} is negative")
        self.capacity, self.row = capacity, row
        self.template = b"{" + b",".join(
            dumps(field) + b":%b" for field in fields) + b"}"
        self.cols = tuple([] if code == "O" else array(code)
                          for code in typecodes)
        count = len(typecodes) - len(typecodes.lstrip("q"))
        self._tables = tuple(None if code in "qO" else _Codes()
                             for code in typecodes)
        # What put loops over, made once: no zip per record.
        self._numbers = tuple(enumerate(self.cols[:count]))
        self._objects = tuple(zip(range(count, len(typecodes)),
                                  self.cols[count:], self._tables[count:]))
        self._kind = typecodes.find("B")
        self._slots = capacity or 1
        self._filled = 0                  # slots each column has
        self.spill: Dict[int, Tuple] = {}
        self.written = 0
        self.lock = threading.Lock()

    def put(self, *values: Any) -> None:
        """Append a record of ``values``, in column order.  The caller
        holds :attr:`lock`."""
        n = self.written
        slot = n % self._slots
        if slot == self._filled:          # the ring is still filling
            self._filled = min(self._slots, slot + GROW_BY)
            grow = self._filled - slot
            for col in self.cols:
                col.extend([None] * grow if type(col) is list else
                           bytes(grow))
        for i, col, table in self._objects:
            col[slot] = values[i] if table is None else table[values[i]]
        self.written = n + 1              # an unhashable code: not counted
        spill = self.spill
        if spill:
            spill.pop(slot, None)
        try:
            for i, col in self._numbers:
                value = values[i]
                if type(value) is not int or value == NONE:
                    if value is not None:
                        raise TypeError
                    value = NONE
                col[slot] = value
        except (TypeError, OverflowError):
            spill[slot] = values[:len(self._numbers)]

    def read(self, limit: Optional[int], kind: Any = None,
             where: Optional[Tuple[int, Callable[[Any], bool]]] = None
             ) -> "Rows":
        """The newest ``limit`` records — of ``kind`` in the kind
        column, and whose column ``where[0]`` holds a value
        ``where[1]`` keeps — copied out under :attr:`lock`: O(rows)
        with it held, a kind found by a search of the column's bytes."""
        if limit is not None and limit < 0:
            raise ValueError(f"read limit {limit} is negative")
        with self.lock:
            n, capacity = self.written, self.capacity
            head = n % capacity if capacity else 0
            retained = min(n, capacity)
            if kind is None and where is None:
                # The newest ``limit``: at most two runs of slots, each
                # copied as a slice.
                take = retained if limit is None else min(limit, retained)
                return Rows(self, [range(head - take, head)]
                            if take <= head else
                            [range(retained + head - take, retained),
                             range(head)])
            if kind is None:
                slots: Iterable[int] = chain(
                    range(head - 1, -1, -1),
                    range(retained - 1, head - 1, -1))
            else:
                code = self._tables[self._kind].get(kind)
                slots = () if code is None else _find(
                    self.cols[self._kind].tobytes(), code, head, retained)
            if where is not None:
                col, keep = self.cols[where[0]], where[1]
                table = self._tables[where[0]]
                if table is not None:
                    keep = {code for value, code in table.items()
                            if keep(value)}.__contains__
                slots = (slot for slot in slots if keep(col[slot]))
            picked = array("q", islice(slots, limit))   # newest first
            picked.reverse()
            return Rows(self, [picked])


class _Codes(dict):
    """A coded column's table: each object's code, the next one given
    to an object not seen before."""

    def __missing__(self, value: Any) -> int:
        code = self[value] = len(self)
        return code


class _Mapped:
    """``map(fn, *columns)``, made anew each time it is iterated: a
    column a ring's ``row`` may read more than once."""

    __slots__ = ("fn", "columns")

    def __init__(self, fn: Callable, *columns: Iterable) -> None:
        self.fn, self.columns = fn, columns

    def __iter__(self) -> Iterator:
        return map(self.fn, *self.columns)


def _unspill(spill: Dict[int, Tuple], column: int, row: int,
             value: Any) -> Any:
    numbers = spill.get(row)
    return value if numbers is None else numbers[column]


def _copy(col: Any, runs: List[Sequence[int]]) -> Any:
    """``col``'s values at the slots of ``runs``, in a column of its
    kind, each value copied once."""
    first, *rest = (
        col[run.start:run.stop] if isinstance(run, range) else
        array(col.typecode, map(col.__getitem__, run))
        if isinstance(col, array) else list(map(col.__getitem__, run))
        for run in runs)
    for run in rest:
        first += run
    return first


def _find(data: bytes, code: int, head: int, retained: int
          ) -> Iterator[int]:
    """The slots, newest first, whose byte in ``data`` is ``code``."""
    for low, high in ((0, head), (head, retained)):
        pos = data.rfind(code, low, high)
        while pos >= 0:
            yield pos
            pos = data.rfind(code, low, pos)


class Rows:
    """The rows a :meth:`Ring.read` picked, oldest first: ``cols`` are
    the ring's columns for those rows alone (machine words copied,
    objects and tables by reference), ``spill`` the numbers of a row
    (by its index here) the ring had spilled.  Their values and text
    are made later, as often as needed, while the ring is appended to."""

    __slots__ = ("ring", "written", "slots", "cols", "spill", "tables")

    def __init__(self, ring: Ring, runs: List[Sequence[int]]) -> None:
        # ``runs``: the slots, as ranges (copied as slices) or arrays.
        # What the ring never changes (row, template, slots) is read
        # from it.
        self.ring, self.written = ring, ring.written
        self.slots = runs[0] if len(runs) == 1 else array("q", chain(*runs))
        self.cols = tuple(_copy(col, runs) for col in ring.cols)
        spill = ring.spill
        self.spill = {row: spill[slot] for row, slot in enumerate(self.slots)
                      if slot in spill} if spill else {}
        self.tables = tuple(None if table is None else list(table)
                            for table in ring._tables)

    def columns(self) -> Tuple[Iterable, ...]:
        """The rows' columns, in the ring's field order, oldest first."""
        n, size = self.written, self.ring._slots
        numbers = len(self.ring._numbers)
        # seq = n - (n - 1 - slot) % size, made without a Python frame
        seqs = _Mapped(n.__sub__, _Mapped(size.__rmod__, _Mapped(
            (n - 1).__sub__, self.slots)))
        cols: List[Iterable] = [_Mapped(_DECODE_NONE, col, col)
                                for col in self.cols[:numbers]]
        if self.spill:        # a spilled row's numbers in place of its own
            cols = [_Mapped(partial(_unspill, self.spill, i),
                            range(len(self.slots)), col)
                    for i, col in enumerate(cols)]
        cols += (col if table is None else _Mapped(table.__getitem__, col)
                 for col, table in zip(self.cols[numbers:],
                                       self.tables[numbers:]))
        return self.ring.row(seqs, *cols)

    def __iter__(self) -> Iterator[Tuple]:
        """Each row's values, in the ring's field order, oldest
        first."""
        return zip(*self.columns())

    def texts(self) -> Iterator[bytes]:
        """Each row's JSON text, oldest first, every one after the
        first led by its separating comma.  An int is formatted; any
        other value — the objects rows share above all — is encoded
        once per pass."""
        known: Dict[int, Tuple[Any, bytes]] = {}

        def text(value: Any) -> bytes:
            if type(value) is int:
                return b"%d" % value
            entry = known.get(id(value))
            if entry is None:             # kept, so its id stays its own
                entry = known[id(value)] = (value, dumps(value))
            return entry[1]

        template = self.ring.template
        after = b"," + template
        for values in self:
            # (*…,) is one exact-size tuple: tuple(map(…)) resizes one
            # per row, and the resized tuples pile up in the freelist.
            yield template % (*map(text, values),)
            template = after
