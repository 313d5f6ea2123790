"""Partitioned metadata index with summary pruning, plus the flat baseline.

A partition holds the records of one namespace region (size-bounded
subtree groups, or owner groups for the security-aware variant) together
with *summaries*: min/max of numeric attributes and the sets of distinct
categorical values (the role Spyglass's signature files play).  A query
visits only partitions whose summaries admit a match; a corrupted
partition is rebuilt from its own region alone.

The baseline :class:`FlatScanIndex` models a database table scan: every
query touches every record.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.metasearch.namespace import FileMeta
from repro.metasearch.query import Query
from repro.obs import tracer as _obs_tracer


@dataclass
class SearchStats:
    """Work accounting for one query."""

    results: int
    records_scanned: int
    partitions_total: int = 1
    partitions_visited: int = 1
    wall_s: float = 0.0

    @property
    def prune_ratio(self) -> float:
        return 1.0 - self.partitions_visited / self.partitions_total


class FlatScanIndex:
    """Database-style baseline: a single table, scanned per query."""

    name = "flat-scan"

    def __init__(self, records: list[FileMeta]) -> None:
        self.records = list(records)

    def search(self, query: Query) -> tuple[list[FileMeta], SearchStats]:
        with _obs_tracer().span("metasearch.search", index=self.name) as sp:
            hits = [f for f in self.records if query.matches(f)]
        return hits, SearchStats(
            results=len(hits),
            records_scanned=len(self.records),
            wall_s=sp.duration,
        )


@dataclass
class _Partition:
    key: str
    records: list[FileMeta] = field(default_factory=list)
    owners: set[int] = field(default_factory=set)
    exts: set[str] = field(default_factory=set)
    projects: set[int] = field(default_factory=set)
    dirs: set[str] = field(default_factory=set)
    size_min: int = 2**63
    size_max: int = 0
    mtime_min: float = float("inf")
    mtime_max: float = float("-inf")

    def add(self, f: FileMeta) -> None:
        self.records.append(f)
        self.owners.add(f.owner)
        self.exts.add(f.ext)
        self.projects.add(f.project)
        self.dirs.add(f.directory)
        self.size_min = min(self.size_min, f.size)
        self.size_max = max(self.size_max, f.size)
        self.mtime_min = min(self.mtime_min, f.mtime)
        self.mtime_max = max(self.mtime_max, f.mtime)

    def may_match(self, q: Query) -> bool:
        """Summary check: can any record here satisfy the query?"""
        if q.owner is not None and q.owner not in self.owners:
            return False
        if q.ext is not None and q.ext not in self.exts:
            return False
        if q.project is not None and q.project not in self.projects:
            return False
        if q.dir_prefix is not None and not any(
            d.startswith(q.dir_prefix) for d in self.dirs
        ):
            return False
        if q.size_min is not None and self.size_max < q.size_min:
            return False
        if q.size_max is not None and self.size_min > q.size_max:
            return False
        if q.mtime_min is not None and self.mtime_max < q.mtime_min:
            return False
        if q.mtime_max is not None and self.mtime_min > q.mtime_max:
            return False
        return True


class PartitionedIndex:
    """Spyglass-style index: namespace partitions + summary pruning.

    partition_by:
      'subtree' — size-bounded groups of sibling directories within a
                  project (namespace locality, the Spyglass default);
      'owner'   — security-aware partitioning (MSST'10): partitions never
                  mix owners, so owner-restricted queries prune maximally.
    """

    def __init__(
        self,
        records: list[FileMeta],
        partition_by: str = "subtree",
        max_partition_records: int = 2000,
    ) -> None:
        if max_partition_records < 1:
            raise ValueError("max_partition_records must be >= 1")
        if partition_by not in ("subtree", "owner"):
            raise ValueError(f"unknown partitioning {partition_by!r}")
        self.partition_by = partition_by
        self.max_partition_records = max_partition_records
        self.partitions: list[_Partition] = []
        self._build(records)

    @property
    def name(self) -> str:
        return f"partitioned-{self.partition_by}"

    def _group_key(self, f: FileMeta) -> str:
        if self.partition_by == "owner":
            return f"o{f.owner}"
        return f.directory.split("/d")[0]  # the project subtree

    def _build(self, records: list[FileMeta]) -> None:
        groups: dict[str, list[FileMeta]] = defaultdict(list)
        for f in records:
            groups[self._group_key(f)].append(f)
        for key in sorted(groups):
            bucket = groups[key]
            # size-bound: split large groups into sequential partitions
            for i in range(0, len(bucket), self.max_partition_records):
                part = _Partition(key=f"{key}#{i // self.max_partition_records}")
                for f in bucket[i:i + self.max_partition_records]:
                    part.add(f)
                self.partitions.append(part)

    # -- queries --------------------------------------------------------
    def search(self, query: Query) -> tuple[list[FileMeta], SearchStats]:
        with _obs_tracer().span("metasearch.search", index=self.name) as sp:
            hits: list[FileMeta] = []
            scanned = 0
            visited = 0
            for part in self.partitions:
                if not part.may_match(query):
                    continue
                visited += 1
                scanned += len(part.records)
                hits.extend(f for f in part.records if query.matches(f))
        return hits, SearchStats(
            results=len(hits),
            records_scanned=scanned,
            partitions_total=len(self.partitions),
            partitions_visited=visited,
            wall_s=sp.duration,
        )
