"""Persistent memory objects: the pool, the PMO library and the durable
store.  Nothing is imported here; the one name declared is a default
a daemon reads without loading the store it configures."""

#: Group commit window: how long the flusher thread waits for more
#: concurrent flushers to pile onto a batch before fsyncing it.
DEFAULT_COMMIT_INTERVAL_US = 200
