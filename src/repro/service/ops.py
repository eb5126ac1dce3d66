"""The terpd op table: every wire operation, declared exactly once.

The paper's Table I is one small API; this is its one statement in
terpd.  Each row says what an op is called, how the cluster router
finds its owner, whether it only observes state, whether it may run
before ``hello``, which field carries its binary payload, and what
the typed client method looks like.  Everything else is derived:

* :mod:`repro.service.protocol` lays a request's values out in
  ``params`` order, and :func:`repro.service.conn.admit` names them
  again and lifts the sidecar argument — the row is the wire schema;
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
    _op("hello", SESSION, ("version", None), ("user", None),
        ("ew_budget_us", None), ("resume", None), ("token", None),
        sessionless=True, method=None),                   # connect()
    _op("goodbye", SESSION),
    # -- observability: every shard answers, the router merges --------------
    _op("ping", FANOUT, **_OBSERVE),
    _op("metrics", FANOUT, ("raw", None), **_OBSERVE),
    _op("trace", FANOUT, ("limit", 100), ("pmo", None), ("kind", None),
        ("name", None), **_OBSERVE),
    _op("prometheus", FANOUT, returns="text", **_OBSERVE),
    _op("repl_status", FANOUT, **_OBSERVE),
    # -- namespace + attach/detach + heap: owned by the PMO's name ----------
    _op("create", NAME, "name", "size", ("mode", 0o600)),
    _op("open", NAME, "name", ("access", "rw")),
    _op("close", NAME, "name", method="close_pmo"),
    _op("destroy", NAME, "name"),
    _op("attach", NAME, "name", ("access", "rw")),
    _op("detach", NAME, "name"),
    _op("pmalloc", NAME, "name", "size", returns="oid"),
    _op("psync", NAME, "name", returns="flushed"),
    _op("tx_begin", NAME, "name", returns="tx"),
    _op("tx_abort", NAME, "name", returns=""),
    # -- data: owned by the Oid's pool id -----------------------------------
    _op("pfree", OID, "oid", returns=""),
    _op("read", OID, "oid", "n", readonly=True, bin_result="data",
        returns="data"),
    _op("write", OID, "oid", "data", bin_arg="data", returns="n"),
    _op("read_u64", OID, "oid", readonly=True, returns="value"),
    _op("write_u64", OID, "oid", "value", returns=""),
)}

#: Ops safe to issue while the circuit is open (degraded read-only
#: mode): they observe state but never mutate it.
READ_ONLY_OPS: FrozenSet[str] = frozenset(
    op.name for op in OPS.values() if op.readonly)
