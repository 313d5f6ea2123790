"""Last-writer-wins interval map over the logical byte space.

The global PLFS index must answer: *which data-dropping bytes hold logical
range [a, b) right now?*  Entries are inserted in timestamp order; a later
insert overwrites any part of earlier segments it overlaps (splitting them
as needed).  Queries return the non-overlapping segments covering a range,
with gaps (holes, read as zeros) simply absent.

The structure is four parallel columns — start, end, payload and
payload_offset — describing disjoint half-open segments sorted by start,
with ``bisect`` lookups: O(log n + k) per query, amortized O(log n + k)
per insert.  A :class:`Segment` object exists only while a caller of
:meth:`IntervalMap.query` or iteration holds it; :meth:`IntervalMap.pieces`
hands the same clipped pieces out as plain tuples, and
:meth:`IntervalMap.load_disjoint` fills an empty map from columns without
running ``insert`` once per segment.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import starmap
from typing import Any, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class Segment:
    """A maximal run of logical bytes served by one index entry.

    ``payload`` is opaque to the map (PLFS stores the entry describing the
    data dropping); ``payload_offset`` is how far into the original entry
    this segment starts — needed when an entry is split by later writes.
    """

    start: int
    end: int
    payload: Any
    payload_offset: int = 0

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty segment [{self.start}, {self.end})")


class IntervalMap:
    """Disjoint, sorted segments supporting overwrite-insert and query."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._payloads: list[Any] = []
        self._offsets: list[int] = []   # payload_offset per segment

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Segment]:
        return map(Segment, self._starts, self._ends, self._payloads, self._offsets)

    @property
    def extent(self) -> int:
        """One past the last mapped byte (0 if empty)."""
        return self._ends[-1] if self._ends else 0

    def covered_bytes(self) -> int:
        return sum(self._ends) - sum(self._starts)

    # -- mutation -----------------------------------------------------
    def load_disjoint(self, starts: Sequence[int], ends: Sequence[int],
                      payloads: Sequence[Any]) -> None:
        """Fill an empty map with segments that are already disjoint.

        The ranges must be non-empty, sorted by start and must not overlap
        (``ends[i] <= starts[i + 1]``); each payload starts at payload
        offset 0.  The result equals ``insert`` of each range in any order.
        """
        if self._starts:
            raise ValueError("load_disjoint needs an empty map")
        s = np.asarray(starts, dtype=np.int64)
        e = np.asarray(ends, dtype=np.int64)
        if not len(s) == len(e) == len(payloads):
            raise ValueError("starts, ends and payloads differ in length")
        if (e <= s).any():
            raise ValueError("empty range")
        if (s[1:] < e[:-1]).any():
            raise ValueError("ranges are unsorted or overlap")
        self._starts = s.tolist()
        self._ends = e.tolist()
        self._payloads = payloads.tolist() if isinstance(payloads, np.ndarray) else list(payloads)
        self._offsets = [0] * len(s)

    def insert(self, start: int, end: int, payload: Any) -> None:
        """Map ``[start, end)`` to ``payload``, clipping older segments."""
        if end <= start:
            return
        starts, ends, payloads, offsets = self._starts, self._ends, self._payloads, self._offsets
        # segments i..j-1 overlap [start, end)
        i = bisect.bisect_right(ends, start)
        j = bisect.bisect_left(starts, end, i)
        new = [(start, end, payload, 0)]
        if i < j:
            if starts[i] < start:   # left remnant of the first survives
                new.insert(0, (starts[i], start, payloads[i], offsets[i]))
            if ends[j - 1] > end:   # right remnant of the last survives
                cut = end - starts[j - 1]
                new.append((end, ends[j - 1], payloads[j - 1], offsets[j - 1] + cut))
        starts[i:j], ends[i:j], payloads[i:j], offsets[i:j] = zip(*new)

    # -- queries ------------------------------------------------------
    def pieces(self, start: int, end: int) -> Iterator[tuple[int, int, Any, int]]:
        """:meth:`query` without the objects: ``(start, end, payload,
        payload_offset)`` of each segment overlapping ``[start, end)``,
        clipped to the range."""
        if end <= start:
            return zip()
        starts, ends = self._starts, self._ends
        # ends are sorted too: from the first segment ending past ``start``
        # up to the first one starting at or past ``end``
        i = bisect.bisect_right(ends, start)
        j = bisect.bisect_left(starts, end, i)
        s, e, skips = starts[i:j], ends[i:j], self._offsets[i:j]
        if s:   # only the first and the last piece can stick out
            if s[0] < start:
                skips[0] += start - s[0]
                s[0] = start
            if e[-1] > end:
                e[-1] = end
        return zip(s, e, self._payloads[i:j], skips)

    def query(self, start: int, end: int) -> list[Segment]:
        """Segments overlapping ``[start, end)``, clipped to the range."""
        return list(starmap(Segment, self.pieces(start, end)))

    def check_invariants(self) -> None:
        """Columns are equally long; segments sorted, disjoint, non-empty."""
        n = len(self._starts)
        assert len(self._ends) == len(self._payloads) == len(self._offsets) == n
        for i in range(n):
            assert self._starts[i] < self._ends[i], f"empty segment at {i}"
            assert self._offsets[i] >= 0
        for i in range(1, n):
            assert self._ends[i - 1] <= self._starts[i], f"overlap at {i}"
