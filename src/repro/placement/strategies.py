"""Chunk-placement strategies abstracted over file-system details."""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from typing import Iterable, Sequence


def _stable_hash(*parts: int | str) -> int:
    key = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.md5(key).digest()[:8], "little")


def straw_order(key: tuple[int | str, ...], candidates: Iterable[int],
                weights: Sequence[float] | None = None) -> list[int]:
    """Candidates by CRUSH straw length for ``key``, longest first.

    Candidate ``c`` draws ``log(u) / weights[c]``, ``u`` in (0, 1] hashed
    from ``(*key, c)``; ties go to the lower candidate.  Removing a
    candidate leaves the others' order unchanged (minimal movement).

    >>> order = straw_order(("obj", "rados"), range(8))
    >>> sorted(order) == list(range(8))
    True
    """
    def straw(c: int) -> float:
        u = (_stable_hash(*key, c) + 1) / float(2**64 + 1)  # (0,1]
        return math.log(u) / (1.0 if weights is None else weights[c])

    return sorted(candidates, key=lambda c: (-straw(c), c))


class PlacementStrategy(ABC):
    """Maps (file_id, chunk_index) to a server index in [0, n_servers)."""

    def __init__(self, n_servers: int, weights: Sequence[float] | None = None) -> None:
        if n_servers < 1:
            raise ValueError("need at least one server")
        self.n_servers = n_servers
        if weights is None:
            self.weights = [1.0] * n_servers
        else:
            if len(weights) != n_servers or any(w <= 0 for w in weights):
                raise ValueError("weights must be positive, one per server")
            self.weights = list(weights)

    @abstractmethod
    def place(self, file_id: int, chunk: int) -> int:
        """Server index holding the chunk."""

    @property
    @abstractmethod
    def name(self) -> str: ...


class RoundRobinPlacement(PlacementStrategy):
    """PVFS-style: stripe from a per-file starting server (ignores weights)."""

    @property
    def name(self) -> str:
        return "round-robin"

    def place(self, file_id: int, chunk: int) -> int:
        return (file_id + chunk) % self.n_servers


class CrushLikePlacement(PlacementStrategy):
    """Ceph/CRUSH straw placement: every server draws a hash-derived straw
    scaled by its weight; the chunk goes to the longest straw.  Adding a
    server only reassigns the chunks whose new straw wins — near-minimal
    migration, the CRUSH property."""

    @property
    def name(self) -> str:
        return "crush-like"

    def place(self, file_id: int, chunk: int) -> int:
        return straw_order((file_id, chunk), range(self.n_servers), self.weights)[0]


class RaidGroupPlacement(PlacementStrategy):
    """PanFS-style: each file lives in a RAID group of ``group_size``
    servers (chosen pseudo-randomly per file); chunks stripe within it."""

    def __init__(
        self,
        n_servers: int,
        group_size: int = 4,
        weights: Sequence[float] | None = None,
    ) -> None:
        super().__init__(n_servers, weights)
        if not 1 <= group_size <= n_servers:
            raise ValueError("group_size must be in [1, n_servers]")
        self.group_size = group_size

    @property
    def name(self) -> str:
        return f"raid-group-{self.group_size}"

    def group_of(self, file_id: int) -> list[int]:
        """The file's component servers (distinct, pseudo-random)."""
        chosen: list[int] = []
        attempt = 0
        while len(chosen) < self.group_size:
            s = _stable_hash(file_id, "grp", attempt) % self.n_servers
            if s not in chosen:
                chosen.append(s)
            attempt += 1
        return chosen

    def place(self, file_id: int, chunk: int) -> int:
        group = self.group_of(file_id)
        return group[chunk % self.group_size]
