"""Primary→standby journal shipping for the durable pool.

The primary's :class:`~repro.pmo.store.GroupCommitter` hands every
post-fsync batch to a :class:`~repro.replication.shipper.JournalShipper`
(semi-sync: the commit waits for the standby's ack while connected);
a :class:`~repro.replication.applier.StandbyDaemon` replays the stream
into its own pool directory and can be *promoted* into a live terpd on
the dead primary's port, with recovery (epoch, sessions, forced
detaches) running verbatim.  See DESIGN.md §13.
"""

from repro.replication.applier import (
    JournalApplier, ReplicationChainError, StandbyDaemon, promote)
from repro.replication.shipper import JournalShipper
from repro.replication.wire import (
    MAX_FRAME_BYTES, REPL_PROTOCOL_VERSION, ReplicationWireError,
    recv_msg, send_msg)

__all__ = [
    "JournalShipper", "JournalApplier", "StandbyDaemon", "promote",
    "ReplicationChainError", "ReplicationWireError",
    "send_msg", "recv_msg", "REPL_PROTOCOL_VERSION", "MAX_FRAME_BYTES",
]
