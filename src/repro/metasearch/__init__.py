"""Spyglass-style partitioned metadata search (report §4.2.2 / §5.8).

UCSC's metadata-search thread (Spyglass, FAST'09; security-aware
partitioning, MSST'10) indexes file metadata by *subtree partitions*,
each carrying small summaries (attribute ranges and signatures).  Because
file metadata has strong namespace locality, most queries prune most
partitions without touching them — the report claims "10-1000 times
faster than existing database systems at metadata search".

- :mod:`repro.metasearch.namespace` — synthetic namespaces with realistic
  attribute locality (extensions, owners, sizes, ages cluster by subtree),
- :mod:`repro.metasearch.query`     — conjunctive queries (equality +
  ranges) and the QUASAR-flavoured path/query string syntax,
- :mod:`repro.metasearch.index`     — the partitioned index with summary
  pruning, a flat full-scan baseline ("the database"), and partition
  strategies (subtree size-bounded; security/owner-aware).
"""

from repro.metasearch.namespace import FileMeta, synth_namespace
from repro.metasearch.query import Query, parse_query
from repro.metasearch.index import (
    FlatScanIndex,
    PartitionedIndex,
    SearchStats,
)

__all__ = [
    "FileMeta",
    "FlatScanIndex",
    "PartitionedIndex",
    "Query",
    "SearchStats",
    "parse_query",
    "synth_namespace",
]
