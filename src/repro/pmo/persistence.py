"""Crash consistency for PMOs: a redo (write-ahead) log.

A PMO "requires ... crash consistency: a PMO remains in a consistent
state even upon software crashes or system power failures"
(Section II).  This module supplies that property with a classic redo
log living inside the PMO's reserved log region:

* ``begin`` opens a transaction;
* ``log_write`` captures (offset, new bytes) pairs — the home
  locations are *not* touched yet;
* ``commit`` appends a commit record and only then applies the logged
  writes to their home locations;
* on recovery, committed-but-unapplied transactions are replayed and
  uncommitted ones discarded.

The log is genuinely serialized into the PMO's bytes, so a simulated
crash (dropping all volatile state) followed by :func:`recover`
exercises the same byte-level path a real PM library would.

Record format (little endian)::

    WRITE record:  u8 tag=1 | u64 tx_id | u64 offset | u32 len | bytes
    COMMIT record: u8 tag=2 | u64 tx_id
    APPLIED mark:  u8 tag=3 | u64 tx_id
    end of log:    u8 tag=0
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.core.errors import CrashConsistencyError
from repro.core.record import record

TAG_END = 0
TAG_WRITE = 1
TAG_COMMIT = 2
TAG_APPLIED = 3

_WRITE_HDR = struct.Struct("<BQQI")
_TX_HDR = struct.Struct("<BQ")


class RedoLog:
    """Write-ahead redo log over a byte region of a PMO.

    ``memory`` must expose ``read(offset, n)`` and ``write(offset,
    data)`` raw byte access (the PMO storage object does).
    """

    def __init__(self, memory, base: int, size: int, *,
                 recover: bool = False) -> None:
        self.memory = memory
        self.base = base
        self.size = size
        self._tail = 0           # append position within the region
        self._next_tx = 1
        self._open_tx: Optional[int] = None
        self._pending: List[Tuple[int, bytes]] = []
        if recover:
            self._recover()
        else:
            self._write_end_marker()

    # -- transaction API -----------------------------------------------------

    def begin(self) -> int:
        if self._open_tx is not None:
            raise CrashConsistencyError("nested transactions not supported")
        self._open_tx = self._next_tx
        self._next_tx += 1
        self._pending = []
        return self._open_tx

    def log_write(self, offset: int, data: bytes) -> None:
        if self._open_tx is None:
            raise CrashConsistencyError("log_write outside a transaction")
        record = _WRITE_HDR.pack(TAG_WRITE, self._open_tx, offset,
                                 len(data)) + data
        self._append(record)
        self._pending.append((offset, bytes(data)))

    def commit(self) -> None:
        """Seal the transaction, then apply writes to home locations."""
        if self._open_tx is None:
            raise CrashConsistencyError("commit outside a transaction")
        tx = self._open_tx
        self._append(_TX_HDR.pack(TAG_COMMIT, tx))
        # The commit record is durable; now apply to home locations.
        for offset, data in self._pending:
            self.memory.write(offset, data)
        self._append(_TX_HDR.pack(TAG_APPLIED, tx))
        self._open_tx = None
        self._pending = []
        self._maybe_checkpoint()

    def abort(self) -> None:
        if self._open_tx is None:
            raise CrashConsistencyError("abort outside a transaction")
        # Nothing was applied; simply forget.  The log entries remain
        # but carry no commit record so recovery ignores them.
        self._open_tx = None
        self._pending = []

    @property
    def in_transaction(self) -> bool:
        return self._open_tx is not None

    @property
    def pending_writes(self) -> List[Tuple[int, bytes]]:
        """The open transaction's not-yet-applied writes (oldest first)."""
        return self._pending

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        """Replay committed-but-unapplied transactions; drop the rest."""
        records = self._scan()
        committed = {tx for tag, tx, _ in records if tag == TAG_COMMIT}
        applied = {tx for tag, tx, _ in records if tag == TAG_APPLIED}
        replay = committed - applied
        max_tx = 0
        for tag, tx, payload in records:
            max_tx = max(max_tx, tx)
            if tag == TAG_WRITE and tx in replay:
                offset, data = payload
                self.memory.write(offset, data)
        for tx in sorted(replay):
            self._append(_TX_HDR.pack(TAG_APPLIED, tx))
        self._next_tx = max_tx + 1
        self._open_tx = None
        self._pending = []
        self._maybe_checkpoint()

    def _scan(self) -> List[Tuple[int, int, object]]:
        """Parse the log region into (tag, tx_id, payload) records."""
        records = []
        pos = 0
        while pos < self.size:
            tag = self.memory.read(self.base + pos, 1)[0]
            if tag == TAG_END:
                break
            if tag == TAG_WRITE:
                if pos + _WRITE_HDR.size > self.size:
                    break  # torn record at crash: ignore the tail
                _, tx, offset, length = _WRITE_HDR.unpack(
                    self.memory.read(self.base + pos, _WRITE_HDR.size))
                data_pos = pos + _WRITE_HDR.size
                if data_pos + length > self.size:
                    break
                data = self.memory.read(self.base + data_pos, length)
                records.append((TAG_WRITE, tx, (offset, bytes(data))))
                pos = data_pos + length
            elif tag in (TAG_COMMIT, TAG_APPLIED):
                if pos + _TX_HDR.size > self.size:
                    break
                _, tx = _TX_HDR.unpack(
                    self.memory.read(self.base + pos, _TX_HDR.size))
                records.append((tag, tx, None))
                pos += _TX_HDR.size
            else:
                # An unknown tag byte is a record header torn by a
                # crash mid-write (e.g. a commit record whose tag byte
                # never fully landed).  The tail from here on was
                # never sealed — any transaction it belonged to lacks
                # a commit record and is discarded, exactly like an
                # explicit TAG_END cut.
                break
        self._tail = pos
        return records

    # -- internals ------------------------------------------------------------

    def _append(self, record: bytes) -> None:
        if self._tail + len(record) + 1 > self.size:
            self._checkpoint()
            if self._tail + len(record) + 1 > self.size:
                raise CrashConsistencyError("redo log full")
        self.memory.write(self.base + self._tail, record)
        self._tail += len(record)
        self._write_end_marker()

    def _write_end_marker(self) -> None:
        self.memory.write(self.base + self._tail, bytes([TAG_END]))

    def _maybe_checkpoint(self) -> None:
        if self._tail > self.size // 2:
            self._checkpoint()

    def _checkpoint(self) -> None:
        """Truncate the log: all applied transactions can be dropped.

        Only safe when no transaction is open or every open tx's
        records are preserved; with the single-open-tx discipline the
        log can simply restart whenever no tx is open.
        """
        if self._open_tx is not None:
            return
        self._tail = 0
        self._write_end_marker()

    def utilization(self) -> float:
        return self._tail / self.size
