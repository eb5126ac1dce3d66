"""Client-side robustness policies: backoff, retry, circuit breaking.

Two cooperating pieces, both deterministic under injection:

* :class:`RetryPolicy` — exponential backoff with seeded jitter.  The
  delay sequence is a pure function of the policy parameters and the
  seed, so tests (and replays of chaos schedules) see identical
  timing decisions; the ``sleep`` callable is injectable so tests run
  at full speed.
* :class:`CircuitBreaker` — the flapping-server guard.  Consecutive
  connection-level failures open the circuit; while open, mutating
  operations fail fast with :class:`CircuitOpenError` and only
  read-only operations pass through (the degraded read-only mode).
  Which operations those are is the op table's ``readonly`` column
  (:data:`repro.service.ops.READ_ONLY_OPS`, re-exported here).
  After ``reset_timeout_s`` the breaker goes half-open and admits one
  probe; the probe's outcome closes or re-opens it.  The clock is
  injectable for deterministic transition tests.

Neither class knows about sockets or the wire protocol — the clients
in :mod:`repro.service.client` drive them.
"""

from __future__ import annotations

import random
import time
from typing import Callable, FrozenSet, Optional

from repro.core.errors import TerpError
from repro.core.record import field, record
from repro.service.ops import READ_ONLY_OPS

__all__ = ["RetryPolicy", "CircuitBreaker", "CircuitOpenError",
           "RETRYABLE_KINDS", "READ_ONLY_OPS"]

#: Server error kinds a client may transparently retry: injected
#: transient faults.  Application errors (PmoError, permission
#: denials) are never retried.
RETRYABLE_KINDS: FrozenSet[str] = frozenset({"InjectedFault"})


class CircuitOpenError(TerpError):
    """The circuit breaker is open; the operation was not attempted."""


@record
class RetryPolicy:
    """Exponential backoff with seeded jitter.

    ``delay_for(attempt)`` for attempt ``0, 1, 2, ...`` is
    ``min(max_delay_s, base_delay_s * multiplier**attempt)``, scaled
    into ``[(1 - jitter) * d, d]`` by the seeded RNG.  With
    ``seed=None`` the RNG is OS-seeded (production); give a seed for
    reproducible sequences.
    """

    max_retries: int = 4
    base_delay_s: float = 0.001
    multiplier: float = 2.0
    max_delay_s: float = 0.050
    jitter: float = 0.5
    seed: Optional[int] = None
    sleep: Callable[[float], None] = time.sleep
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise TerpError("max_retries must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise TerpError("jitter must be within [0, 1]")
        self._rng = random.Random(self.seed)

    def delay_for(self, attempt: int) -> float:
        """The backoff before retry number ``attempt`` (0-based)."""
        ceiling = min(self.max_delay_s,
                      self.base_delay_s * self.multiplier ** attempt)
        if self.jitter == 0.0:
            return ceiling
        return ceiling * (1.0 - self.jitter * self._rng.random())


class CircuitBreaker:
    """Closed → open after N consecutive failures → half-open probe.

    State answers one question per request: *may this operation hit
    the wire right now?*  Only connection-level failures count toward
    opening — an application error from a healthy server is a
    successful round-trip as far as the breaker is concerned (the
    caller records success for those).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, *, failure_threshold: int = 5,
                 reset_timeout_s: float = 0.250,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold <= 0:
            raise TerpError("failure_threshold must be positive")
        if reset_timeout_s <= 0:
            raise TerpError("reset_timeout_s must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        self.opens = 0          # lifetime open transitions (metrics)

    @property
    def state(self) -> str:
        self._maybe_half_open()
        return self._state

    def _maybe_half_open(self) -> None:
        if self._state == self.OPEN and \
                self._clock() - self._opened_at >= self.reset_timeout_s:
            self._state = self.HALF_OPEN
            self._probing = False

    def allow(self, *, readonly: bool = False) -> bool:
        """May an operation be attempted right now?

        Open: only read-only operations pass (degraded mode).
        Half-open: exactly one probe passes (read-only ops ride along
        freely — they cannot close a window they never opened).
        """
        self._maybe_half_open()
        if self._state == self.CLOSED:
            return True
        if readonly:
            return True
        if self._state == self.HALF_OPEN and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        self._state = self.CLOSED
        self._failures = 0
        self._probing = False

    def record_failure(self) -> None:
        self._maybe_half_open()
        if self._state == self.HALF_OPEN:
            self._open()
            return
        self._failures += 1
        if self._state == self.CLOSED and \
                self._failures >= self.failure_threshold:
            self._open()

    def _open(self) -> None:
        self._state = self.OPEN
        self._opened_at = self._clock()
        self._failures = 0
        self._probing = False
        self.opens += 1
