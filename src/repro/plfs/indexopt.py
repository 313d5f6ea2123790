"""Index pattern compression (PDSI follow-on #5: "compress read-back
indexes").

Checkpoint indices are huge but *regular*: a rank writing an N-1 strided
pattern produces records at offsets ``base + i*stride`` with constant
length.  :func:`detect_patterns` replaces each such run with one
formulaic descriptor, which is how ``repro-plfs analyze`` reports how far
a container's index would compress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.plfs.index import IndexEntry


@dataclass(frozen=True)
class StridedRun:
    """``count`` records: offsets base + i*stride, constant length."""

    base: int
    stride: int
    length: int
    count: int
    physical_base: int
    first_timestamp: float
    timestamp_step: float
    dropping: int = 0


def detect_patterns(
    entries: Sequence[IndexEntry], min_run: int = 3
) -> tuple[list[StridedRun], list[IndexEntry]]:
    """Factor a dropping's record list into strided runs + leftovers.

    Records must be physically contiguous (log append order) and
    uncompressed to join a run; that is the common checkpoint case.
    """
    runs: list[StridedRun] = []
    leftovers: list[IndexEntry] = []
    i = 0
    n = len(entries)
    while i < n:
        e = entries[i]
        j = i + 1
        if not e.compressed and j < n:
            stride = entries[j].logical_offset - e.logical_offset
            ts_step = entries[j].timestamp - e.timestamp
            while (
                j < n
                and not entries[j].compressed
                and entries[j].length == e.length
                and entries[j].dropping == e.dropping
                and entries[j].logical_offset == e.logical_offset + (j - i) * stride
                and entries[j].physical_offset == e.physical_offset + (j - i) * e.length
            ):
                j += 1
        if j - i >= min_run:
            runs.append(
                StridedRun(
                    base=e.logical_offset,
                    stride=entries[i + 1].logical_offset - e.logical_offset,
                    length=e.length,
                    count=j - i,
                    physical_base=e.physical_offset,
                    first_timestamp=e.timestamp,
                    timestamp_step=entries[i + 1].timestamp - e.timestamp,
                    dropping=e.dropping,
                )
            )
            i = j
        else:
            leftovers.append(e)
            i += 1
    return runs, leftovers
