"""Trace events and the append-only trace log."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

OPS = ("open", "close", "read", "write", "stat", "seek", "sync")


@dataclass(frozen=True)
class TraceEvent:
    """One I/O event observed at the VFS-equivalent level."""

    t: float
    rank: int
    op: str
    offset: int = 0
    nbytes: int = 0
    path: str = ""

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown op {self.op!r}")


class TraceLog:
    """Append-only in-memory event log with columnar export."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def add(self, event: TraceEvent) -> None:
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def filter(self, op: str | None = None, rank: int | None = None) -> "TraceLog":
        out = TraceLog()
        for e in self._events:
            if op is not None and e.op != op:
                continue
            if rank is not None and e.rank != rank:
                continue
            out.add(e)
        return out

    def columns(self) -> dict[str, np.ndarray]:
        """Columnar view for vectorized analysis."""
        return {
            "t": np.array([e.t for e in self._events]),
            "rank": np.array([e.rank for e in self._events], dtype=np.int64),
            "op": np.array([e.op for e in self._events]),
            "offset": np.array([e.offset for e in self._events], dtype=np.int64),
            "nbytes": np.array([e.nbytes for e in self._events], dtype=np.int64),
        }

    def total_bytes(self, op: str) -> int:
        return sum(e.nbytes for e in self._events if e.op == op)
