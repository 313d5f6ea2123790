"""Primitive parallel I/O patterns.

Terminology follows the report (and the PLFS paper):

* **N-1 strided**: all ranks write one shared file; each rank's records
  interleave with every other rank's throughout the file (what Fig 15's
  Ninjat image shows).  The pathological case for deployed parallel FSes.
* **N-1 segmented**: one shared file, but each rank owns one contiguous
  region.
"""

from __future__ import annotations


import numpy as np

Pattern = list[list[tuple[int, int]]]


def n1_strided(n_ranks: int, record_bytes: int, steps: int) -> Pattern:
    """Interleaved records: step s, rank r writes at ``(s*N + r) * record``."""
    _check(n_ranks, record_bytes, steps)
    return [
        [((s * n_ranks + r) * record_bytes, record_bytes) for s in range(steps)]
        for r in range(n_ranks)
    ]


def n1_segmented(n_ranks: int, record_bytes: int, steps: int) -> Pattern:
    """Contiguous per-rank regions: rank r owns ``[r*steps*rec, ...)``."""
    _check(n_ranks, record_bytes, steps)
    region = steps * record_bytes
    return [
        [(r * region + s * record_bytes, record_bytes) for s in range(steps)]
        for r in range(n_ranks)
    ]


def with_jitter(
    pattern: Pattern,
    rng: np.random.Generator,
    size_jitter: float = 0.2,
    min_bytes: int = 1,
) -> Pattern:
    """Perturb record sizes (keeping offsets) to model variable-size
    records such as AMR boxes; sizes stay positive and never overlap the
    next record of the same rank."""
    out: Pattern = []
    for writes in pattern:
        rank_out = []
        for i, (off, n) in enumerate(writes):
            limit = n
            scale = 1.0 + size_jitter * (2.0 * rng.random() - 1.0)
            nb = max(min_bytes, min(limit, int(round(n * scale))))
            rank_out.append((off, nb))
        out.append(rank_out)
    return out


def pattern_bytes(pattern: Pattern) -> int:
    return sum(n for writes in pattern for _, n in writes)


def overlap_bytes(writes: list[tuple[int, int]], extents) -> int:
    """Bytes of one rank's ``(offset, nbytes)`` records that fall inside
    ``extents`` (an iterable of half-open ``(lo, hi)`` byte ranges).

    This is the phase-1 shuffle volume of two-phase collective I/O: the
    data a rank must send to the aggregator owning those extents.
    Extents are assumed mutually disjoint (as file domains are), so the
    per-extent overlaps sum without double counting.
    """
    total = 0
    for off, n in writes:
        end = off + n
        for lo, hi in extents:
            cut = min(end, hi) - max(off, lo)
            if cut > 0:
                total += cut
    return total


def _check(n_ranks: int, record_bytes: int, steps: int) -> None:
    if n_ranks < 1 or record_bytes < 1 or steps < 1:
        raise ValueError("n_ranks, record_bytes, steps must all be >= 1")
