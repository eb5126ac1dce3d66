"""The terpd op table: every wire operation, declared exactly once.

The paper's Table I is one small API; this is its one statement in
terpd.  Each row says what an op is called, how the cluster router
finds its owner, whether it only observes state, whether it may run
before ``hello``, what its answer holds, which field carries its
binary payload, and what the typed client method looks like.
Everything else is derived:

* :mod:`repro.service.protocol` lays a request's values out in
  ``params`` order and an answer's in ``results`` order, and
  :func:`repro.service.conn.admit` and the client core name them again
  and lift the sidecar values — the row is the wire schema, both ways
  (an event's is its kind's row of :data:`EVENTS`).  A name from a
  closed table travels as its index there: an op as its row's position
  in :data:`OPS`, an event kind as its row's in :data:`EVENTS`, an
  outcome or a reason as its entry's in :data:`VOCABULARIES`;
* :class:`~repro.service.server.TerpService` binds ``_op_<name>``
  handlers, span names and the sidecar result's lowering;
* :class:`~repro.cluster.router.TerpRouter` routes by ``route`` and
  binds ``_fanout_<name>`` mergers for the fan-out rows (both check
  requests through :func:`repro.service.server.admit`);
* :mod:`repro.service.retry` projects :data:`READ_ONLY_OPS` (what an
  open circuit still lets through);
* :mod:`repro.service.client` generates both clients' typed methods.

To add an op: append a row here, write ``TerpService._op_<name>``, and —
only if it is a fan-out op — ``TerpRouter._fanout_<name>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, FrozenSet, Optional, Sequence, Tuple, TypeVar

from repro.core.semantics import Outcome

T = TypeVar("T")

#: Routing keys: by the PMO ``name`` in the args (consistent-hash
#: ring), by the packed ``oid`` (pool-id arithmetic), answered by
#: every shard and merged, or terminated against the session itself.
NAME, OID, FANOUT, SESSION = "name", "oid", "fanout", "session"
#: Marks a typed-method parameter that has no default.
REQUIRED: Any = object()
#: The one result field of an open-ended answer (``metrics``,
#: ``trace``, ``repl_status``): the object travels whole in its slot,
#: and is the result itself, not a field of it.
WHOLE = "*"


@dataclass(frozen=True)
class Op:
    name: str
    #: one of :data:`NAME`, :data:`OID`, :data:`FANOUT`, :data:`SESSION`
    route: str
    #: every argument a request carries, in wire order, as ``(name,
    #: default)``; a ``None`` default is not given unless passed.  An
    #: ``oid`` parameter takes an :class:`~repro.pmo.object_id.Oid`.
    params: Tuple[Tuple[str, Any], ...] = ()
    #: observes state only: allowed while the circuit is open.
    readonly: bool = False
    #: allowed before ``hello`` binds a session.
    sessionless: bool = False
    #: every field a result carries, in wire order; ``(WHOLE,)`` for an
    #: open-ended answer.
    results: Tuple[str, ...] = ()
    #: request argument whose ``bytes`` ride the frame's sidecar; its
    #: slot in the request holds their byte count, a bare int.
    bin_arg: Optional[str] = None
    #: result field whose ``bytes`` ride the response's sidecar; its
    #: slot in the result holds their byte count, a bare int.
    bin_result: Optional[str] = None
    #: what the typed method returns: a result field, ``None`` for the
    #: whole result dict, ``""`` for nothing.
    returns: Optional[str] = None
    #: the typed client method's name; ``None`` = no typed method.
    method: Optional[str] = None

    @cached_property
    def defaults(self) -> Tuple[Tuple[str, Any], ...]:
        """The ``(name, default)`` params that have a value to fall
        back on: what a request leaves out, its handler is given."""
        return tuple((name, default) for name, default in self.params
                     if default is not None and default is not REQUIRED)

    @cached_property
    def bin_param(self) -> Optional[int]:
        """Where a request's values hold :attr:`bin_arg`'s byte count,
        or ``None`` for a row without one."""
        names = [name for name, _ in self.params]
        return names.index(self.bin_arg) if self.bin_arg else None

    @cached_property
    def bin_slot(self) -> Optional[int]:
        """Where a result's values hold :attr:`bin_result`'s byte
        count, or ``None`` for a row without one."""
        return self.results.index(self.bin_result) \
            if self.bin_result else None


def _op(name: str, route: str, *params: Any, method: Any = REQUIRED,
        **flags: Any) -> Op:
    return Op(name, route,
              tuple(p if isinstance(p, tuple) else (p, REQUIRED)
                    for p in params),
              method=name if method is REQUIRED else method, **flags)


_OBSERVE = {"readonly": True, "sessionless": True}

#: Every op, in wire order: a request names its op by the row's
#: position here (:func:`op_row`).  A new row is appended at the end,
#: so every index already in use keeps its meaning.
OPS: Dict[str, Op] = {op.name: op for op in (
    # -- session ------------------------------------------------------------
    # ``version`` first, both ways: any revision reads it at one slot.
    _op("hello", SESSION, ("version", None), ("user", "root"),
        ("ew_budget_us", None), ("resume", None), ("token", None),
        results=("version", "session", "entity", "ew_budget_us", "token",
                 "resumed"),
        sessionless=True, method=None),                   # connect()
    _op("goodbye", SESSION, results=("released",)),
    # -- observability: every shard answers, the router merges --------------
    _op("ping", FANOUT, results=("now_ns", "sessions"), **_OBSERVE),
    _op("metrics", FANOUT, ("raw", None), results=(WHOLE,), **_OBSERVE),
    # ``kind`` and ``pmo`` filter the audit half only, ``name`` the
    # spans half only; ``limit`` bounds each half.
    _op("trace", FANOUT, ("limit", 100), ("pmo", None), ("kind", None),
        ("name", None), results=(WHOLE,), **_OBSERVE),
    _op("prometheus", FANOUT, results=("text",), returns="text",
        **_OBSERVE),
    _op("repl_status", FANOUT, results=(WHOLE,), **_OBSERVE),
    # -- namespace + attach/detach + heap: owned by the PMO's name ----------
    _op("create", NAME, "name", "size", ("mode", 0o600),
        results=("pmo", "name", "size")),
    _op("open", NAME, "name", ("access", "rw"),
        results=("pmo", "name", "size")),
    _op("close", NAME, "name", results=("closed",), method="close_pmo"),
    _op("destroy", NAME, "name", results=("destroyed",)),
    _op("attach", NAME, "name", ("access", "rw"),
        results=("outcome", "reason")),
    _op("detach", NAME, "name", results=("outcome", "reason")),
    _op("pmalloc", NAME, "name", "size", results=("oid",), returns="oid"),
    _op("psync", NAME, "name", results=("flushed",), returns="flushed"),
    _op("tx_begin", NAME, "name", results=("tx",), returns="tx"),
    _op("tx_abort", NAME, "name", results=("aborted",), returns=""),
    # -- data: owned by the Oid's pool id -----------------------------------
    _op("pfree", OID, "oid", results=("freed",), returns=""),
    _op("read", OID, "oid", "n", readonly=True, results=("data",),
        bin_result="data", returns="data"),
    _op("write", OID, "oid", "data", bin_arg="data", results=("n",),
        returns="n"),
    _op("read_u64", OID, "oid", readonly=True, results=("value",),
        returns="value"),
    _op("write_u64", OID, "oid", "value", results=("written",),
        returns=""),
)}

#: The op names by wire index: ``OP_NAMES[i]`` is row ``i`` of
#: :data:`OPS`.
OP_NAMES: Tuple[str, ...] = tuple(OPS)
#: A row's wire index by its name.
OP_INDEX: Dict[str, int] = {name: index
                            for index, name in enumerate(OP_NAMES)}


def entry(table: Sequence[T], index: Any) -> Optional[T]:
    """What a wire index names in a closed table — ``table[index]`` for
    an int in range — or ``None`` for anything else."""
    return table[index] \
        if type(index) is int and 0 <= index < len(table) else None


def op_row(op: Any) -> Optional[Op]:
    """The row a request's op slot names — a wire index into
    :data:`OPS` — or ``None`` for anything else."""
    name = entry(OP_NAMES, op)
    return OPS[name] if name is not None else None


#: Every event kind's fields after the kind itself, in wire order: an
#: event travels as ``[kind_index, v1, …]`` — its kind's position
#: here, appended to like :data:`OPS` — and is the ``{"event": kind,
#: …}`` dict a client's ``events`` holds.
EVENTS: Dict[str, Tuple[str, ...]] = {
    "forced-detach": ("pmo", "pmo_id", "at_ns", "reason"),
}
#: The event kinds by wire index.
EVENT_KINDS: Tuple[str, ...] = tuple(EVENTS)

#: Every text the daemon puts in an attach/detach result's or a
#: forced-detach event's ``reason``, as far as it is a fixed one.  The
#: arch engine's cases come first, then the daemon's own and the
#: reasons a session's windows are closed for; appended to only.
REASONS: Tuple[str, ...] = (
    # The arch engine's CONDAT / CONDDT cases
    # (:class:`~repro.arch.cond_engine.TerpArchEngine`).
    "case 1: first attach",
    "case 5: full detach",
    "case 6: delayed detach",
    "case 3: silent attach (window combined)",
    "case 2: subsequent attach",
    "case 4: partial detach",
    "case 1 after eviction",
    "pair already closed by forced detach",
    # The daemon's own detach outcome.
    "already force-detached by sweeper",
    # Why a session's window was closed for it.
    "session EW budget elapsed",
    "arch engine forced detach",
    "connection lost",
    "session crashed (injected)",
    "daemon restart",
    "EW budget elapsed during daemon outage",
    "goodbye",
    "shutdown",
)

#: The fields whose values come from a closed table, and the table: a
#: value travels as its index there — or, if the table does not have
#: it, as itself (an index is a JSON number, a text a string).
VOCABULARIES: Dict[str, Tuple[str, ...]] = {
    "outcome": tuple(outcome.value for outcome in Outcome),
    "reason": REASONS,
}

#: Ops safe to issue while the circuit is open (degraded read-only
#: mode): they observe state but never mutate it.
READ_ONLY_OPS: FrozenSet[str] = frozenset(
    op.name for op in OPS.values() if op.readonly)


def trace_limit(args: Dict[str, Any]) -> int:
    """A ``trace`` request's ``limit`` — its row's default when it is
    not given, and never negative: what the daemon and the router
    both read."""
    limit = int(args.get("limit", dict(OPS["trace"].params)["limit"]))
    if limit < 0:
        raise ValueError(f"trace limit {limit} is negative")
    return limit
