"""Block-granular write-lock manager (POSIX coherence model).

Real parallel file systems keep concurrently written files coherent with
distributed byte-range locks handed out in fixed-size blocks.  When rank A
writes bytes inside a block currently owned by rank B, the lock must
migrate (a round trip to the lock server plus cache flush at B), and if
A's write covers only part of the block the owner must merge — modeled as a
read-modify-write of the full block.

This is the "false sharing" mechanism: unaligned N-1 strided checkpoints
place every rank's records astride its neighbours' blocks, so nearly every
write migrates a lock, while stripe-aligned or N-N patterns never conflict.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LockCharge:
    """What one write must pay before touching its byte range."""

    migrations: int          # lock blocks that changed owner
    rmw_blocks: int          # partially-covered shared blocks (read-modify-write)

    def cost_s(self, lock_latency_s: float, rmw_block_read_s: float) -> float:
        return self.migrations * lock_latency_s + self.rmw_blocks * rmw_block_read_s


class BlockLockManager:
    """Tracks per-block ownership for one file."""

    def __init__(self, granularity: int) -> None:
        if granularity < 1:
            raise ValueError("granularity must be positive")
        self.granularity = granularity
        self.owner: dict[int, int] = {}
        self.total_migrations = 0
        self.total_rmw = 0

    def charge_write(self, client: int, offset: int, length: int) -> LockCharge:
        """Account a write by ``client``; returns migration/RMW counts."""
        if length <= 0:
            return LockCharge(0, 0)
        g = self.granularity
        first = offset // g
        last = (offset + length - 1) // g
        migrations = 0
        rmw = 0
        for block in range(first, last + 1):
            prev = self.owner.get(block)
            if prev is None:
                self.owner[block] = client
                continue
            if prev != client:
                migrations += 1
                self.owner[block] = client
                block_start = block * g
                block_end = block_start + g
                covered = min(offset + length, block_end) - max(offset, block_start)
                if covered < g:
                    rmw += 1
        self.total_migrations += migrations
        self.total_rmw += rmw
        return LockCharge(migrations, rmw)
