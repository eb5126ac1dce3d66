"""terpd cluster — multi-process sharded serving behind one router.

A single asyncio process caps terpd's throughput; the paper's per-PMO
exposure accounting partitions cleanly by PMOID, so the cluster runs N
worker shards — each a full :class:`~repro.service.server.TerpService`
owning a partition of the PMO namespace, its own sweeper, and (when
durable) its own store directory — behind an asyncio router that
speaks the daemon's wire protocol to unmodified clients.

Modules:

``ring``        seeded consistent-hash ring over PMO names
``aggregate``   cross-shard metric merging (sum counters, merge buckets)
``router``      the client-facing front-end: session pinning, op
                routing, batch split/merge, shard-death -> retry path
``supervisor``  forks shard + router processes, monitors liveness,
                warm-restarts dead shards on the same port

Run a cluster with ``python -m repro.cluster --shards N``.  Nothing is
imported here: import names from their modules.
"""
