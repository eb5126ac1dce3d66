"""The workload event vocabulary.

A simulated thread is a Python generator yielding these events.  The
vocabulary deliberately separates *work* from *protection*: workloads
describe computation, PMO access bursts, and logical operation
boundaries (transactions); attach/detach insertion is the job of the
configured :mod:`insertion policy <repro.sim.policy>`, exactly as in
the paper where MERR relies on the programmer and TERP on the
compiler.

Events:

``Compute(ns)``
    Core-local computation (includes non-PMO memory time).

``Burst(pmo, n_accesses, unique_pages, write_fraction, base_cycles)``
    A cluster of PMO accesses — the unit the region analysis wraps in
    one thread exposure window.  ``base_cycles`` is the unprotected
    per-access cost (cache/NVM mix); protection adds matrix checks and
    post-shootdown TLB misses on top.

``TxBegin(pmos)`` / ``TxEnd()``
    A logical operation boundary (one WHISPER transaction, one SPEC
    phase chunk).  These are where a programmer would bookend
    attach/detach — MERR's manual insertion uses them.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.record import record


@record(frozen=True)
class Compute:
    """Pure computation for ``ns`` nanoseconds of baseline time."""

    ns: int


@record(frozen=True)
class Burst:
    """A cluster of accesses to one PMO.

    The burst is atomic from the insertion policy's point of view: a
    thread exposure window never splits a burst (mirroring that a code
    region with PMO accesses is the smallest unit the compiler wraps).
    """

    pmo: str
    n_accesses: int
    unique_pages: int = 1
    write_fraction: float = 0.5
    #: Unprotected cycles per access (L1-hit-dominated by default).
    base_cycles: float = 2.0

    @property
    def reads(self) -> int:
        return self.n_accesses - self.writes

    @property
    def writes(self) -> int:
        return int(self.n_accesses * self.write_fraction)


@record(frozen=True)
class TxBegin:
    """Start of a logical operation touching the named PMOs."""

    pmos: Tuple[str, ...]

    @classmethod
    def of(cls, *pmos: str) -> "TxBegin":
        return cls(tuple(pmos))


@record(frozen=True)
class TxEnd:
    """End of the current logical operation."""


@record(frozen=True)
class RegionEnd:
    """End of a PMO-access code region.

    Marks the post-dominator of a PMO-WFG region (Section V-A): the
    point where the compiler statically knows no further PMO accesses
    follow for a while, and therefore inserts the conditional detach.
    Workload generators emit it after each access cluster.
    """


WorkEvent = (Compute, Burst, TxBegin, TxEnd, RegionEnd)
