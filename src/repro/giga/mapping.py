"""GIGA+ split-history bitmap and hash-to-partition mapping.

A directory starts as one partition (index 0, radix 0).  Splitting
partition ``i`` at radix ``r`` creates partition ``i + 2**r``; entries
whose name-hash has bit ``r`` set move there, and both partitions now have
radix ``r+1``.  The *bitmap* (the set of existing partition indices plus
per-partition radixes) fully describes the directory's shape; any replica
of it — however stale — still addresses a *superset* ancestor of the true
partition, which is what makes lazy client correction safe.

Mapping rule: take the hash's low bits up to the deepest radix in use;
clear the top set bit until the value names an existing partition.
Because a partition's index encodes the low-bit suffix its entries share,
this finds the deepest existing partition consistent with the hash.  No
partition index has a bit at or above the deepest radix, so starting
there visits the same first match a walk from ``MAX_RADIX`` bits would.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

MAX_RADIX = 20  # up to ~1M partitions


def hash_name(name: str) -> int:
    """Stable 64-bit hash of a file name (md5-based; not security)."""
    return int.from_bytes(hashlib.md5(name.encode()).digest()[:8], "little")


class GigaBitmap:
    """Split history: existing partitions and their radixes.

    ``_mask`` caches ``(1 << deepest radix) - 1``; :meth:`split` and
    :meth:`merge_from` keep it current, and assigning ``radix`` wholesale
    recomputes it.
    """

    def __init__(self) -> None:
        self.radix = {0: 0}

    @property
    def radix(self) -> dict[int, int]:
        """Partition index → radix (how many low hash bits it owns)."""
        return self._radix

    @radix.setter
    def radix(self, value: dict[int, int]) -> None:
        self._radix = value
        self._mask = (1 << max(value.values(), default=0)) - 1

    def copy(self) -> "GigaBitmap":
        """An independent replica of this split history."""
        new = GigaBitmap.__new__(GigaBitmap)
        new._radix = dict(self._radix)
        new._mask = self._mask
        return new

    # -- queries -----------------------------------------------------
    def __contains__(self, partition: int) -> bool:
        return partition in self.radix

    def __len__(self) -> int:
        return len(self.radix)

    def partitions(self) -> list[int]:
        return sorted(self.radix)

    def partition_of(self, h: int) -> int:
        """Deepest existing partition consistent with hash ``h``."""
        radix = self._radix
        i = h & self._mask
        while i and i not in radix:
            i &= ~(1 << (i.bit_length() - 1))
        return i

    # -- mutation ------------------------------------------------------
    def split(self, partition: int) -> int:
        """Record a split of ``partition``; returns the new child index."""
        r = self.radix.get(partition)
        if r is None:
            raise KeyError(f"partition {partition} does not exist")
        if r >= MAX_RADIX:
            raise OverflowError("radix limit reached")
        child = partition | (1 << r)
        if child in self.radix:
            raise ValueError(f"child partition {child} already exists")
        self.radix[partition] = r + 1
        self.radix[child] = r + 1
        self._mask |= (1 << (r + 1)) - 1
        return child

    def useful_split(self, partition: int, hashes: Iterable[int]) -> bool:
        """Would splitting ``partition`` actually separate ``hashes``?

        False when the radix limit is reached or when every entry would
        stay on one side (including the 0- and 1-entry directories) —
        splitting then mints an empty sibling without shedding any load,
        so callers should treat it as a no-op instead of calling
        :meth:`split`.  Raises KeyError if ``partition`` does not exist.
        """
        r = self.radix.get(partition)
        if r is None:
            raise KeyError(f"partition {partition} does not exist")
        if r >= MAX_RADIX or (partition | (1 << r)) in self.radix:
            return False
        sides = {(h >> r) & 1 for h in hashes}
        return len(sides) == 2

    # -- replica merge --------------------------------------------------
    def merge_from(self, other: "GigaBitmap") -> bool:
        """Absorb any partitions/splits ``other`` knows about; returns
        True if anything changed.  Radix per partition only grows, so
        taking the max is the correct join."""
        changed = False
        for p, r in other.radix.items():
            mine = self.radix.get(p)
            if mine is None or r > mine:
                self.radix[p] = r
                changed = True
        self._mask |= other._mask
        return changed

    # -- invariants -----------------------------------------------------
    def check_invariants(self) -> None:
        """Every partition's parent chain exists with adequate radix, and
        partition indices fit under their radix and the cached mask."""
        assert 0 in self.radix
        for p, r in self.radix.items():
            assert 0 <= r <= MAX_RADIX
            assert p < (1 << MAX_RADIX)
            assert p & ~self._mask == 0, f"partition {p} above mask {self._mask:#x}"
            if p:
                assert p.bit_length() <= r, f"partition {p} too shallow (r={r})"
                parent = p & ~(1 << (p.bit_length() - 1))
                assert parent in self.radix, f"orphan partition {p}"
