"""Cross-shard metric merging for the router's ``metrics`` op.

Each shard answers ``metrics`` with its own report; the router must
present ONE coherent report to a client that neither knows nor cares
that N processes served it.  The merge is one walk of the report tree
(:func:`sum_tree`): additive counts — almost every leaf — add, and
every leaf that is *not* an additive count merges by the rule declared
for its path next to the metric table
(:data:`repro.service.metrics.MERGE_RULES`).  Latency percentiles are
the canonical case — the mean of two p99s is not the p99 of the union
— so the router asks shards for their raw histogram buckets
(``metrics {raw: true}``) and recomputes the percentiles from the
merged cumulative bucket counts with
:func:`~repro.obs.registry.merge_histograms`: the rule a single
daemon applies to its own buckets, so a cluster reports what one
daemon would for the same traffic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from repro.obs.registry import merge_histograms
from repro.service.metrics import (
    BUCKETS, CONCAT, MAX, MERGE_RULES, MIN, OWNED, PER_SHARD, WEIGHTED)


def sum_tree(trees: Sequence[Any], path: str = "",
             reports: Sequence[Dict[str, Any]] = ()) -> Any:
    """Merge parallel JSON trees: dicts merge by key, a key whose path
    has a declared rule merges by it, other numbers add, and anything
    else keeps the first non-None value.  ``reports`` is the whole
    per-shard reports, for rules that read beside their own leaf."""
    trees = [t for t in trees if t is not None]
    if not trees:
        return None
    first = trees[0]
    if isinstance(first, bool):
        return first
    if isinstance(first, (int, float)):
        return sum(t for t in trees if isinstance(t, (int, float)))
    if not isinstance(first, dict):
        return first
    dicts = [t for t in trees if isinstance(t, dict)]
    out: Dict[str, Any] = {}
    for key in dict.fromkeys(key for tree in dicts for key in tree):
        sub = f"{path}.{key}" if path else key
        rule = MERGE_RULES.get(sub)
        holders = [t for t in dicts if t.get(key) is not None]
        if rule is None or not holders:
            out[key] = sum_tree([t[key] for t in holders], sub, reports)
        elif rule[0] != PER_SHARD:
            out[key] = _MERGE[rule[0]](holders, key, reports, *rule[1:])
    return out


def _weighted(holders: List[Dict[str, Any]], key: str,
              reports: Sequence[Dict[str, Any]], *by: str) -> float:
    """The mean of ``key`` weighted by the sum of its ``by`` siblings
    (the population each shard computed it over)."""
    weights = [sum(h.get(name, 0) for name in by) for h in holders]
    total = sum(weights)
    if not total:
        return 0.0
    return sum(h[key] * w for h, w in zip(holders, weights)) / total


def _bucket_merged(holders: List[Dict[str, Any]], key: str,
                   reports: Sequence[Dict[str, Any]],
                   name: str) -> Dict[str, float]:
    """The latency summary recomputed from every shard's raw ``name``
    histogram (absent — a ``--no-obs`` cluster — merges to zeros)."""
    return merge_histograms([
        ((r.get("registry") or {}).get("histograms") or {}).get(name)
        for r in reports])


#: rule kind -> ``(dicts holding the key, key, reports, *parameters)``.
_MERGE: Dict[str, Callable[..., Any]] = {
    MAX: lambda holders, key, _: max(h[key] for h in holders),
    MIN: lambda holders, key, _: min(h[key] for h in holders),
    CONCAT: lambda holders, key, _: [
        item for h in holders for item in h[key]],
    OWNED: lambda holders, key, _: {
        name: entry for h in holders for name, entry in h[key].items()},
    WEIGHTED: _weighted,
    BUCKETS: _bucket_merged,
}


def aggregate_metrics(reports: List[Dict[str, Any]], *,
                      sessions: int) -> Dict[str, Any]:
    """Per-shard ``metrics`` responses -> one cluster-wide report.

    ``sessions`` is the router's own count (the client-facing truth:
    shard-side sessions are an implementation detail — one client
    session fans out to up to N upstream ones).
    """
    reports = [r for r in reports if r]
    merged = sum_tree(reports, reports=reports) or {}
    # ``recovery`` and ``session`` are only there when a shard sent
    # one; they follow the ``cluster`` section.
    optional = {key: merged.pop(key) for key in ("recovery", "session")
                if key in merged}
    return {
        **merged,
        "sessions": sessions,
        "cluster": {
            "shards": len(reports),
            "per_shard_requests": {
                str(r.get("shard", i)):
                    (r.get("global") or {}).get("requests", 0)
                for i, r in enumerate(reports)},
        },
        **optional,
    }


def label_prometheus(text: str, shard: int) -> str:
    """Inject a ``shard`` label into every sample of one shard's
    Prometheus exposition, so concatenated shard dumps stay distinct
    series."""
    out = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            out.append(line)
            continue
        name_and_labels, _, value = line.rpartition(" ")
        if "{" in name_and_labels:
            head, _, tail = name_and_labels.partition("{")
            sample = f'{head}{{shard="{shard}",{tail} {value}'
        else:
            sample = f'{name_and_labels}{{shard="{shard}"}} {value}'
        out.append(sample)
    return "\n".join(out) + "\n"
