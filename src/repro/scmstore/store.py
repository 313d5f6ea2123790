"""Log-structured object store: placement policy over the flash FTL's streams."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.devices.flash import FlashDevice, FlashParams

#: each placement policy's append streams, in stream-id order
STREAMS = {
    "mixed": ("all",),
    "split-meta": ("data", "hot"),  # meta+atime share the hot stream
    "split-all": ("data", "meta", "atime"),
}
PLACEMENT_POLICIES = tuple(STREAMS)

#: write kinds, hottest last
KINDS = ("data", "meta", "atime")


@dataclass
class StoreStats:
    host_writes: int = 0
    cleaner_moves: int = 0
    segments_erased: int = 0

    @property
    def cleaning_overhead(self) -> float:
        """Pages moved by the cleaner per host write (0 = free cleaning)."""
        return self.cleaner_moves / self.host_writes if self.host_writes else 0.0

    @property
    def write_amplification(self) -> float:
        return 1.0 + self.cleaning_overhead


class ObjectStore:
    """Object store on a page-mapped FTL, one append stream per kind group.

    Every live datum is a *key* (e.g. ``('data', obj, block)`` or
    ``('atime', obj)``) occupying one logical page of :attr:`device`;
    rewriting a key invalidates its old page.  The placement policy
    controls how many append streams exist and which kind goes where.
    Segments are the FTL's erase blocks and cleaning is its greedy GC,
    which moves each live page back into the stream it was written to.

    Capacity: the device keeps ``clean_watermark + 2`` spare segments (the
    FTL's GC rule, :attr:`FlashParams.physical_blocks`), so the store holds
    ``(n_segments - clean_watermark - 2) * pages_per_segment`` keys; a
    write of one more raises :class:`RuntimeError`.

    >>> [ObjectStore(policy=p).streams for p in PLACEMENT_POLICIES]
    [('all',), ('data', 'hot'), ('data', 'meta', 'atime')]
    """

    def __init__(
        self,
        n_segments: int = 64,
        pages_per_segment: int = 128,
        policy: str = "mixed",
        clean_watermark: int = 2,
    ) -> None:
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        if n_segments < 8 or pages_per_segment < 1:
            raise ValueError("need >= 8 segments and >= 1 page each")
        self.policy = policy
        self.streams = STREAMS[policy]
        self.device = FlashDevice(FlashParams(
            pages_per_block=pages_per_segment,
            user_blocks=n_segments - clean_watermark - 2,
            overprovision=0.0,
            gc_low_watermark_blocks=clean_watermark,
        ))
        self._lpage: dict[Hashable, int] = {}  # key -> logical page

    def stream_of(self, kind: str) -> str:
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if self.policy == "mixed":
            return "all"
        if self.policy == "split-meta":
            return "data" if kind == "data" else "hot"
        return kind

    # -- write path -----------------------------------------------------------
    def write(self, kind: str, key: Hashable) -> None:
        """(Re)write one page for ``key``; old version invalidates."""
        stream = self.streams.index(self.stream_of(kind))
        lpage = self._lpage.get(key)
        if lpage is None:
            lpage = len(self._lpage)
            if lpage >= self.device.params.user_pages:
                raise RuntimeError(
                    f"store full: {lpage} keys = (n_segments - clean_watermark - 2)"
                    " * pages_per_segment"
                )
            self._lpage[key] = lpage
        self.device.write(lpage, stream)

    # -- views of the device ----------------------------------------------------
    @property
    def stats(self) -> StoreStats:
        d = self.device
        return StoreStats(d.host_pages_written, d.gc_page_moves, d.blocks_erased)

    @property
    def location(self) -> dict[Hashable, tuple[int, int]]:
        """key -> (segment, page) of its live version."""
        pps = self.device.params.pages_per_block
        mapping = self.device.mapping
        return {key: divmod(int(mapping[lp]), pps) for key, lp in self._lpage.items()}

    def check_invariants(self) -> None:
        self.device.check_invariants()


def run_mixed_workload(
    policy: str,
    rng: np.random.Generator,
    n_objects: int = 200,
    data_blocks: int = 8,
    n_reads: int = 8000,
    meta_update_prob: float = 0.1,
    data_rewrite_prob: float = 0.01,
    **store_kwargs,
) -> StoreStats:
    """The report's read-intensive experiment.

    Objects are ingested once (cold data + metadata), then a long
    read-mostly phase updates access times on every read, occasionally
    touching metadata and rarely rewriting data.
    """
    store = ObjectStore(policy=policy, **store_kwargs)
    for obj in range(n_objects):
        for b in range(data_blocks):
            store.write("data", ("data", obj, b))
        store.write("meta", ("meta", obj))
        store.write("atime", ("atime", obj))
    for _ in range(n_reads):
        obj = int(rng.integers(0, n_objects))
        store.write("atime", ("atime", obj))  # every read updates atime
        if rng.random() < meta_update_prob:
            store.write("meta", ("meta", obj))
        if rng.random() < data_rewrite_prob:
            b = int(rng.integers(0, data_blocks))
            store.write("data", ("data", obj, b))
    store.check_invariants()
    return store.stats
