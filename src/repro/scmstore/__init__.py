"""Object-based storage-class-memory store (report §5.8, UCSC).

UCSC proposed an *object interface* to storage-class memories: the device
manages its own space behind object read/write/delete, so file systems
need not change per technology.  Their flash prototype explored
log-structured **data placement policies**: mixing everything in one log,
separating data from metadata, and further separating access-time
updates — "cleaning overhead can be reduced significantly by separating
data, metadata, and access time especially under a read-intensive
workload" (atime updates are tiny, hot, and rewritten constantly; letting
them ride in data segments drags whole cold segments through the
cleaner).

- :mod:`repro.scmstore.store` — the object store as a placement policy
  over the flash FTL's append streams (its GC is the cleaner), and the
  workload driver for the cleaning-overhead experiment.
"""

from repro.scmstore.store import (
    PLACEMENT_POLICIES,
    ObjectStore,
    StoreStats,
    run_mixed_workload,
)

__all__ = [
    "ObjectStore",
    "PLACEMENT_POLICIES",
    "StoreStats",
    "run_mixed_workload",
]
