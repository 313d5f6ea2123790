"""Flash SSD model with a page-mapped flash translation layer (FTL).

The report's flash findings (Fig 11, Fig 14, Table 1) all trace back to one
mechanism: a flash page cannot be overwritten in place, so the embedded
controller writes into pre-erased pages and reclaims stale ones with
garbage collection (GC).  While the pre-erased pool lasts, random writes
are fast; once it is depleted every user write drags relocation + erase
work behind it ("the true cost of random writes shows through as 10 times
slower").

This module implements that mechanism directly:

* page-mapped FTL (logical page -> physical page, numpy arrays),
* one open append block per write stream; greedy min-valid-page victim
  selection for GC, which moves each live page into its own stream,
* an overprovisioned physical space (spare blocks the user cannot address),
* per-operation cost accounting, so write amplification and the sustained
  random-write cliff *emerge* rather than being curve-fit.

Device-level headline numbers (peak bandwidth, 4K IOPS) are configured per
device in :mod:`repro.devices.catalog` to match the report's Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FlashParams:
    """FTL and media parameters for one SSD.

    ``read_page_s`` / ``program_page_s`` are *effective* per-4K-op costs at
    the device interface (controller + channel parallelism already folded
    in), so ``1 / read_page_s`` is the fresh-device 4K random-read IOPS.
    """

    name: str = "generic-ssd"
    page_bytes: int = 4096
    pages_per_block: int = 64
    user_blocks: int = 1024
    overprovision: float = 0.12          # spare physical space fraction of user space
    read_page_s: float = 50e-6
    program_page_s: float = 220e-6
    erase_block_s: float = 1.5e-3
    peak_read_Bps: float = 200e6         # large sequential read ceiling
    peak_write_Bps: float = 100e6        # large sequential write ceiling
    gc_low_watermark_blocks: int = 2     # GC when free blocks drop below this

    @property
    def user_pages(self) -> int:
        return self.user_blocks * self.pages_per_block

    @property
    def physical_blocks(self) -> int:
        # GC progress needs spare blocks beyond the low watermark: when
        # collection triggers there must exist a victim holding stale pages.
        floor = self.gc_low_watermark_blocks + 2
        spare = max(floor, int(round(self.user_blocks * self.overprovision)))
        return self.user_blocks + spare

    @property
    def capacity_bytes(self) -> int:
        return self.user_pages * self.page_bytes


@dataclass
class SustainedWriteResult:
    """Outcome of :meth:`FlashDevice.sustained_random_write`."""

    window_times_s: np.ndarray          # end time of each measurement window
    window_iops: np.ndarray             # achieved 4K-write IOPS per window
    fresh_iops: float
    steady_iops: float
    write_amplification: float

    @property
    def degradation_factor(self) -> float:
        """fresh / steady IOPS ratio (the report observes ~10x)."""
        return self.fresh_iops / self.steady_iops if self.steady_iops else float("inf")


FREE, VALID, STALE = 0, 1, 2


class FlashDevice:
    """Page-mapped SSD; all costs accumulate into :attr:`time_s`."""

    def __init__(self, params: FlashParams = FlashParams()) -> None:
        p = params
        self.params = p
        n_phys_pages = p.physical_blocks * p.pages_per_block
        # logical -> physical page (or -1)
        self.mapping = np.full(p.user_pages, -1, dtype=np.int64)
        # physical page state and back-pointer to owning logical page
        self.page_state = np.full(n_phys_pages, FREE, dtype=np.int8)
        self.page_owner = np.full(n_phys_pages, -1, dtype=np.int64)
        # write stream of each logical page's current version
        self.page_stream = np.zeros(p.user_pages, dtype=np.int64)
        self.valid_per_block = np.zeros(p.physical_blocks, dtype=np.int64)
        self.erase_counts = np.zeros(p.physical_blocks, dtype=np.int64)
        self._free_blocks = list(range(p.physical_blocks - 1, 0, -1))
        # stream -> [open head block, next slot]; other streams open lazily
        self._heads: dict[int, list[int]] = {0: [0, 0]}
        # accounting
        self.time_s = 0.0
        self.host_pages_written = 0
        self.flash_pages_programmed = 0
        self.pages_read = 0
        self.blocks_erased = 0
        self.gc_page_moves = 0

    # -- helpers -------------------------------------------------------
    def _program(self, lpage: int, stream: int) -> None:
        """Program ``lpage`` at ``stream``'s head, opening a block if needed."""
        pp = self.params.pages_per_block
        head = self._heads.get(stream)
        if head is None or head[1] >= pp:
            if not self._free_blocks:
                raise RuntimeError("FTL out of free blocks; GC invariant broken")
            head = self._heads[stream] = [self._free_blocks.pop(), 0]
        block, slot = head
        head[1] += 1
        phys = block * pp + slot
        self.page_state[phys] = VALID
        self.page_owner[phys] = lpage
        self.valid_per_block[block] += 1
        self.mapping[lpage] = phys
        self.flash_pages_programmed += 1

    def free_blocks(self) -> int:
        """Erased blocks not yet opened; open heads' unused tails not counted."""
        return len(self._free_blocks)

    # -- host operations -------------------------------------------------
    def read(self, lpage: int) -> float:
        """4K logical-page read; unmapped pages cost a read of zeros."""
        self._check_lpage(lpage)
        t = self.params.read_page_s
        self.pages_read += 1
        self.time_s += t
        return t

    def write(self, lpage: int, stream: int = 0) -> float:
        """4K logical-page write appended to ``stream``; may drag GC work. Returns cost."""
        self._check_lpage(lpage)
        t = 0.0
        p = self.params
        # invalidate previous version
        old = self.mapping[lpage]
        if old >= 0:
            self.page_state[old] = STALE
            self.page_owner[old] = -1
            self.valid_per_block[old // p.pages_per_block] -= 1
        self.page_stream[lpage] = stream
        self._program(lpage, stream)
        t += p.program_page_s
        self.host_pages_written += 1
        if len(self._free_blocks) < p.gc_low_watermark_blocks:
            t += self._garbage_collect()
        self.time_s += t
        return t

    def write_subpage(self, lpage: int, nbytes: int) -> float:
        """Sub-4K write: read-modify-write of the page (the <4KB penalty)."""
        self._check_lpage(lpage)
        t = 0.0
        if 0 < nbytes < self.params.page_bytes and self.mapping[lpage] >= 0:
            t += self.params.read_page_s  # read old content for the merge
            self.pages_read += 1
            self.time_s += t
        return t + self.write(lpage)

    def sequential_read(self, nbytes: int) -> float:
        """Large streaming read at the device's peak rate."""
        t = nbytes / self.params.peak_read_Bps
        self.time_s += t
        return t

    def sequential_write(self, nbytes: int) -> float:
        """Large streaming write at the device's peak rate.

        Sequential writes fill whole blocks, so they invalidate whole blocks
        on rewrite and cause no relocation; modeled at the peak rate.
        """
        t = nbytes / self.params.peak_write_Bps
        self.time_s += t
        return t

    # -- garbage collection ----------------------------------------------
    def _garbage_collect(self) -> float:
        """Greedy GC: erase min-valid victims until above the watermark."""
        p = self.params
        t = 0.0
        while len(self._free_blocks) < p.gc_low_watermark_blocks:
            victim = self._pick_victim()
            t += self._reclaim(victim)
        return t

    def _pick_victim(self) -> int:
        valid = self.valid_per_block.copy()
        for b, _ in self._heads.values():
            valid[b] = np.iinfo(np.int64).max  # never an open head
        for b in self._free_blocks:
            valid[b] = np.iinfo(np.int64).max
        victim = int(np.argmin(valid))
        if valid[victim] == np.iinfo(np.int64).max:
            raise RuntimeError("no GC victim available")
        return victim

    def _reclaim(self, victim: int) -> float:
        p = self.params
        if self.valid_per_block[victim] >= p.pages_per_block:
            raise RuntimeError(
                "GC victim has no stale pages; overprovisioning too small"
            )
        t = 0.0
        start = victim * p.pages_per_block
        block_slice = slice(start, start + p.pages_per_block)
        owners = self.page_owner[block_slice]
        states = self.page_state[block_slice]
        for slot in np.nonzero(states == VALID)[0]:
            t += p.read_page_s + p.program_page_s
            lpage = owners[slot]
            self._program(lpage, int(self.page_stream[lpage]))  # back into its own stream
            self.gc_page_moves += 1
            self.pages_read += 1
        self.page_state[block_slice] = FREE
        self.page_owner[block_slice] = -1
        self.valid_per_block[victim] = 0
        self.erase_counts[victim] += 1
        self.blocks_erased += 1
        t += p.erase_block_s
        self._free_blocks.insert(0, victim)
        return t

    # -- derived metrics ---------------------------------------------------
    def write_amplification(self) -> float:
        if self.host_pages_written == 0:
            return 1.0
        return self.flash_pages_programmed / self.host_pages_written

    def fresh_write_iops(self) -> float:
        return 1.0 / self.params.program_page_s

    def fresh_read_iops(self) -> float:
        return 1.0 / self.params.read_page_s

    # -- experiment drivers --------------------------------------------------
    def sustained_random_write(
        self,
        n_ops: int,
        rng: np.random.Generator,
        span_fraction: float = 0.9,
        n_windows: int = 40,
    ) -> SustainedWriteResult:
        """Random 4K writes over ``span_fraction`` of the device (Fig 14).

        Returns per-window achieved IOPS; the cliff appears once every
        physical page has been programmed and GC begins charging relocation
        work to the host writes.
        """
        span = max(1, int(self.params.user_pages * span_fraction))
        lpages = rng.integers(0, span, size=n_ops)
        per_window = max(1, n_ops // n_windows)
        times, iops = [], []
        t_window = 0.0
        ops_in_window = 0
        for lp in lpages:
            t_window += self.write(int(lp))
            ops_in_window += 1
            if ops_in_window == per_window:
                times.append(self.time_s)
                iops.append(ops_in_window / t_window if t_window > 0 else 0.0)
                t_window = 0.0
                ops_in_window = 0
        if ops_in_window:
            times.append(self.time_s)
            iops.append(ops_in_window / t_window if t_window > 0 else 0.0)
        iops_arr = np.asarray(iops)
        tail = iops_arr[int(len(iops_arr) * 0.75):]
        steady = float(tail.mean()) if len(tail) else 0.0
        return SustainedWriteResult(
            window_times_s=np.asarray(times),
            window_iops=iops_arr,
            fresh_iops=self.fresh_write_iops(),
            steady_iops=steady,
            write_amplification=self.write_amplification(),
        )

    def _check_lpage(self, lpage: int) -> None:
        if not 0 <= lpage < self.params.user_pages:
            raise IndexError(f"logical page {lpage} out of range")

    def check_invariants(self) -> None:
        """Internal consistency: mappings bidirectional, counts coherent,
        and every block's valid pages belong to one stream."""
        mapped = self.mapping[self.mapping >= 0]
        assert len(np.unique(mapped)) == len(mapped), "two lpages share a physical page"
        assert np.all(self.page_state[mapped] == VALID)
        owners = self.page_owner[mapped]
        back = self.mapping[owners]
        assert np.array_equal(np.sort(back), np.sort(mapped))
        pp = self.params.pages_per_block
        per_block = np.bincount(
            mapped // pp, minlength=self.params.physical_blocks
        )
        assert np.array_equal(per_block, self.valid_per_block)
        streams = self.page_stream[self.mapping >= 0]
        pairs = np.unique(np.column_stack((mapped // pp, streams)), axis=0)
        assert len(np.unique(pairs[:, 0])) == len(pairs), "a block mixes streams"
