"""GIGA+ scalable directories (report §4.2.2, Figure 7).

Concurrent file creation in one directory does not scale on production
parallel file systems: one metadata server does all the work, or cache
consistency serializes updates.  GIGA+ hash-partitions a directory across
servers, *splits partitions independently without global locking*, and
lets client partition maps go stale — a client using an outdated map is
corrected lazily by the server it mis-addressed, with a bounded number of
extra hops.

- :mod:`repro.giga.mapping` — the pure split-history bitmap and hash
  mapping (the heart of the design),
- :mod:`repro.giga.service` — the sharded metadata *service*: a bank of
  servers on the shared fabric with consistent-hash shard ownership,
  client-cached shard maps, a membership coordinator, and failover.
  Its ``run_storm`` is the Metarates-style create storm behind Fig 7
  and X20 (docs/metadata.md walks through it).
"""

from repro.giga.mapping import GigaBitmap, MAX_RADIX, hash_name
from repro.giga.service import (
    Coordinator,
    GigaService,
    MetadataServer,
    ServiceClient,
    ServiceParams,
    ShardMap,
    StormResult,
    run_storm,
)

__all__ = [
    "Coordinator",
    "GigaBitmap",
    "GigaService",
    "MAX_RADIX",
    "MetadataServer",
    "ServiceClient",
    "ServiceParams",
    "ShardMap",
    "StormResult",
    "hash_name",
    "run_storm",
]
