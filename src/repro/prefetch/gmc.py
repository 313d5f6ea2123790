"""Markov-context prefetchers and their evaluation harness.

Accesses are ``(file_id, block)`` pairs.  A prefetcher observes the stream
one access at a time; *before* seeing each access it may issue predictions
(prefetches).  Metrics follow the prefetching literature the report cites:

* **coverage**  — fraction of accesses that had been prefetched,
* **accuracy**  — fraction of issued prefetches that were ever used.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable, Sequence

Access = tuple[int, int]  # (file_id, block)


@dataclass
class PrefetchStats:
    accesses: int = 0
    hits: int = 0
    prefetches_issued: int = 0
    prefetches_used: int = 0

    @property
    def coverage(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def accuracy(self) -> float:
        return self.prefetches_used / self.prefetches_issued if self.prefetches_issued else 0.0


class _CountTable:
    """context -> successor -> count, with top-k prediction."""

    def __init__(self) -> None:
        self.table: dict[Hashable, dict[Access, int]] = defaultdict(dict)

    def observe(self, context: Hashable, nxt: Access) -> None:
        bucket = self.table[context]
        bucket[nxt] = bucket.get(nxt, 0) + 1

    def predict(self, context: Hashable, k: int, min_count: int = 1) -> list[Access]:
        bucket = self.table.get(context)
        if not bucket:
            return []
        ranked = sorted(bucket.items(), key=lambda kv: (-kv[1], kv[0]))
        return [a for a, c in ranked[:k] if c >= min_count]


class OrderOnePrefetcher:
    """Classic single-order context predictor over the global stream —
    the baseline GMC improves on."""

    def __init__(self, k: int = 2) -> None:
        self.k = k
        self._table = _CountTable()

    def predict(self, access: Access) -> list[Access]:
        """Predictions issued after observing ``access``."""
        return self._table.predict(("G1", access), self.k)

    def observe(self, prev: Access | None, access: Access) -> None:
        if prev is not None:
            self._table.observe(("G1", prev), access)


class GMCPrefetcher:
    """Global Multi-order Context prefetcher.

    Keeps context tables of orders ``1..max_order`` over the *global*
    stream plus an order-1 *local* (per-file) table; predicts from the
    longest matching global context, backing off to shorter orders and
    finally the local table.  Higher orders are consulted first because a
    long matched context is strong evidence (high accuracy); backoff keeps
    coverage up when long contexts are unseen.
    """

    def __init__(self, max_order: int = 3, k: int = 2) -> None:
        if max_order < 1:
            raise ValueError("max_order must be >= 1")
        self.max_order = max_order
        self.k = k
        self._global = _CountTable()
        self._local = _CountTable()
        self._history: list[Access] = []
        self._last_by_file: dict[int, Access] = {}

    def predict(self, access: Access) -> list[Access]:
        out: list[Access] = []
        # observe() has usually already logged `access`; don't double-count
        if self._history and self._history[-1] == access:
            hist = list(self._history)
        else:
            hist = self._history + [access]
        for order in range(self.max_order, 0, -1):
            if len(hist) < order:
                continue
            ctx = ("G", order, tuple(hist[-order:]))
            preds = self._global.predict(ctx, self.k)
            for p in preds:
                if p not in out:
                    out.append(p)
            if len(out) >= self.k:
                return out[: self.k]
        for p in self._local.predict(("L1", access), self.k):
            if p not in out:
                out.append(p)
        return out[: self.k]

    def observe(self, prev: Access | None, access: Access) -> None:
        hist = self._history
        for order in range(1, self.max_order + 1):
            if len(hist) >= order:
                ctx = ("G", order, tuple(hist[-order:]))
                self._global.observe(ctx, access)
        last = self._last_by_file.get(access[0])
        if last is not None:
            self._local.observe(("L1", last), access)
        self._last_by_file[access[0]] = access
        hist.append(access)
        if len(hist) > self.max_order:
            del hist[0]


def evaluate_prefetcher(prefetcher, stream: Sequence[Access], cache_size: int = 64) -> PrefetchStats:
    """Replay a stream; prefetched blocks live in a FIFO prefetch cache."""
    stats = PrefetchStats()
    cache: dict[Access, bool] = {}  # access -> used flag (FIFO by insertion)
    prev: Access | None = None
    for access in stream:
        stats.accesses += 1
        if access in cache:
            stats.hits += 1
            if not cache.pop(access):
                stats.prefetches_used += 1
        prefetcher.observe(prev, access)
        for p in prefetcher.predict(access):
            if p not in cache:
                if len(cache) >= cache_size:
                    cache.pop(next(iter(cache)))
                cache[p] = False
                stats.prefetches_issued += 1
        prev = access
    return stats
