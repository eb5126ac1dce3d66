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
  (an event's is its kind's row of :data:`EVENTS`);
* :class:`~repro.service.server.TerpService` binds ``_op_<name>``
  handlers, span names and the sidecar result's lowering;
* :class:`~repro.cluster.router.TerpRouter` routes by ``route`` and
  binds ``_fanout_<name>`` mergers for the fan-out rows (both check
  requests through :func:`repro.service.server.admit`);
* :mod:`repro.service.retry` projects :data:`READ_ONLY_OPS` (what an
  open circuit still lets through);
* :mod:`repro.service.client` generates both clients' typed methods.

To add an op: add a row here, write ``TerpService._op_<name>``, and —
only if it is a fan-out op — ``TerpRouter._fanout_<name>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Tuple

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
    #: request argument whose ``bytes`` ride the frame's sidecar.
    bin_arg: Optional[str] = None
    #: result field whose ``bytes`` ride the response's sidecar.
    bin_result: Optional[str] = None
    #: what the typed method returns: a result field, ``None`` for the
    #: whole result dict, ``""`` for nothing.
    returns: Optional[str] = None
    #: the typed client method's name; ``None`` = no typed method.
    method: Optional[str] = None


def _op(name: str, route: str, *params: Any, method: Any = REQUIRED,
        **flags: Any) -> Op:
    return Op(name, route,
              tuple(p if isinstance(p, tuple) else (p, REQUIRED)
                    for p in params),
              method=name if method is REQUIRED else method, **flags)


_OBSERVE = {"readonly": True, "sessionless": True}

OPS: Dict[str, Op] = {op.name: op for op in (
    # -- session ------------------------------------------------------------
    # ``version`` first: any revision can read it at the same slot.
    # ``version`` first, both ways: any revision reads it at one slot.
    _op("hello", SESSION, ("version", None), ("user", None),
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

#: Every event kind's fields after the kind itself, in wire order: an
#: event travels as ``[kind, v1, …]`` and is the ``{"event": kind,
#: …}`` dict a client's ``events`` holds.
EVENTS: Dict[str, Tuple[str, ...]] = {
    "forced-detach": ("pmo", "pmo_id", "at_ns", "reason"),
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
