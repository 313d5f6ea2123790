"""ScalaTrace-style event-trace compression (report §5.4.2, ORNL/NCSU).

ScalaTrace keeps trace files scalable by recognizing *repetitive
behaviour patterns (e.g., loops)* and storing the pattern once with a
repeat count instead of every event.  ORNL extended it to POSIX I/O
events and replayed compressed traces into their simulation framework.

This module compresses a sequence of I/O operation *signatures* with a
greedy longest-repeat detector (offsets are delta-encoded, so regular
strides collapse into one parameterized body), and replays the
compressed form back into the exact original sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.tracing.records import TraceLog


@dataclass(frozen=True)
class OpSig:
    """Loop-invariant signature of one event: op, size, and offset delta
    from the previous event of the same rank (strides are loop-stable
    even when absolute offsets are not)."""

    op: str
    nbytes: int
    delta: int


@dataclass(frozen=True)
class Loop:
    """``body`` repeated ``count`` times."""

    body: tuple
    count: int


def signatures(log: TraceLog, rank: int) -> list[OpSig]:
    """Per-rank delta-encoded signatures, in time order."""
    events = sorted(
        (e for e in log if e.rank == rank), key=lambda e: e.t
    )
    out: list[OpSig] = []
    prev_off = 0
    for e in events:
        out.append(OpSig(e.op, e.nbytes, e.offset - prev_off))
        prev_off = e.offset
    return out


def compress(seq: Sequence) -> list:
    """Greedy loop detection: replace the longest immediate repetition.

    Runs in passes; each pass scans window sizes from 1 upward and folds
    maximal adjacent repeats ``X X X -> Loop(X, 3)``.  Idempotent once no
    adjacent repeats remain.
    """
    items = list(seq)
    changed = True
    while changed:
        changed = False
        best = None  # (saved, start, width, count)
        n = len(items)
        for width in range(1, n // 2 + 1):
            start = 0
            while start + 2 * width <= n:
                count = 1
                while (
                    start + (count + 1) * width <= n
                    and items[start:start + width]
                    == items[start + count * width:start + (count + 1) * width]
                ):
                    count += 1
                if count > 1:
                    saved = (count - 1) * width
                    if best is None or saved > best[0]:
                        best = (saved, start, width, count)
                    start += count * width
                else:
                    start += 1
        if best is not None:
            _, start, width, count = best
            loop = Loop(tuple(items[start:start + width]), count)
            items[start:start + width * count] = [loop]
            changed = True
    return items


def expand(compressed: Sequence) -> list:
    """Inverse of :func:`compress`."""
    out: list = []
    for item in compressed:
        if isinstance(item, Loop):
            body = expand(item.body)
            out.extend(body * item.count)
        else:
            out.append(item)
    return out


def compressed_size(compressed: Sequence) -> int:
    """Storage units: one per literal, one header + body per loop."""
    size = 0
    for item in compressed:
        if isinstance(item, Loop):
            size += 1 + compressed_size(item.body)
        else:
            size += 1
    return size


def compress_log(log: TraceLog) -> dict:
    """Compress every rank's stream; returns sizes and structures."""
    ranks = sorted({e.rank for e in log})
    per_rank = {}
    raw = 0
    packed = 0
    for r in ranks:
        sigs = signatures(log, r)
        comp = compress(sigs)
        assert expand(comp) == sigs, "ScalaTrace compression must be lossless"
        per_rank[r] = comp
        raw += len(sigs)
        packed += compressed_size(comp)
    return {
        "per_rank": per_rank,
        "raw_events": raw,
        "stored_units": packed,
        "ratio": raw / packed if packed else float("inf"),
    }
