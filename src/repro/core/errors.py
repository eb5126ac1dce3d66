"""Exception hierarchy for the TERP reproduction.

Every subsystem raises exceptions derived from :class:`TerpError` so
callers can catch reproduction-level failures without masking ordinary
Python errors.  The split mirrors the paper's fault classes: semantics
violations (Section IV), protection faults observed by the simulated
hardware (Sections III and V), and substrate misuse (Table I API).
"""

from __future__ import annotations


class TerpError(Exception):
    """Base class for all errors raised by the repro package."""


class SemanticsViolation(TerpError):
    """An attach/detach sequence violated the active semantics.

    Under *Basic* semantics, for example, a second ``attach()`` before
    the matching ``detach()`` is invalid (Figure 3, line 7 of the
    example code) and surfaces as this exception.
    """


class ProtectionFault(TerpError):
    """A simulated load/store was denied.

    Carries enough context to distinguish the three PMO data states of
    Section VII-D: detached (segmentation fault), attached without
    thread permission (permission fault), attached with insufficient
    permission kind (e.g. store with read-only grant).
    """

    def __init__(self, message: str, *, kind: str = "permission",
                 thread_id: int | None = None, pmo_id: int | None = None):
        super().__init__(message)
        #: ``"segfault"`` when the PMO is not mapped at all,
        #: ``"permission"`` when mapped but the thread lacks access.
        self.kind = kind
        self.thread_id = thread_id
        self.pmo_id = pmo_id


class SegmentationFault(ProtectionFault):
    """Access to a PMO that is not mapped into the address space."""

    def __init__(self, message: str, *, thread_id: int | None = None,
                 pmo_id: int | None = None):
        super().__init__(message, kind="segfault", thread_id=thread_id,
                         pmo_id=pmo_id)


class PmoError(TerpError):
    """Misuse of the PMO pool API (Table I): bad OID, double free, ..."""


class OutOfPersistentMemory(PmoError):
    """``pmalloc`` could not satisfy the request within the PMO."""


class CrashConsistencyError(PmoError):
    """The persistent log or snapshot is in an unrecoverable state."""


class IntegrityError(PmoError):
    """Persistent bytes failed verification (CRC mismatch) and no
    repair source exists — bit rot, media decay, or tampering.

    Carries the PMO name and the page index so the operator can
    quarantine precisely.  Distinct from
    :class:`CrashConsistencyError`: the *log* is fine, the *data* is
    provably not what was written.
    """

    def __init__(self, message: str, *, pmo: str = "",
                 page_index: int | None = None) -> None:
        super().__init__(message)
        self.pmo = pmo
        self.page_index = page_index


class InjectedFault(TerpError):
    """A deterministic fault-injection rule fired (transient).

    Raised at registered injection sites when the active
    :class:`~repro.faults.plan.FaultPlan` decides the operation fails.
    Models a *transient* failure — a storage write error, an exhausted
    protection-domain pool — that a client may safely retry.  Carries
    the site so callers (and tests) can attribute the failure.
    """

    def __init__(self, message: str, *, site: str = "") -> None:
        super().__init__(message)
        self.site = site


class InjectedCrash(InjectedFault):
    """A fault-injection rule demanded a crash at this point.

    The terpd server treats this as the hosting process dying
    mid-request: the session's windows are force-closed, the
    connection is severed without a response, and the persistent bytes
    are left exactly as they were when the crash fired — the
    crash-torture harness snapshots them and drives recovery.
    """


class CompilerError(TerpError):
    """Malformed IR or a failed static-analysis precondition."""


class SimulationError(TerpError):
    """The discrete-event machine reached an inconsistent state."""


class ConfigurationError(TerpError):
    """An evaluation configuration (MM/TM/TT) is internally inconsistent."""
