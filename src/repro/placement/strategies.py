"""Chunk-placement strategies abstracted over file-system details."""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from typing import Iterable


def _stable_hash(*parts: int | str) -> int:
    key = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.md5(key).digest()[:8], "little")


def straw_order(key: tuple[int | str, ...], candidates: Iterable[int]) -> list[int]:
    """Candidates by CRUSH straw length for ``key``, longest first.

    Candidate ``c`` draws ``log(u)``, ``u`` in (0, 1] hashed from
    ``(*key, c)``; ties go to the lower candidate.  Removing a candidate
    leaves the others' order unchanged (minimal movement).

    >>> order = straw_order(("obj", "rados"), range(8))
    >>> sorted(order) == list(range(8))
    True
    """
    def straw(c: int) -> float:
        u = (_stable_hash(*key, c) + 1) / float(2**64 + 1)  # (0,1]
        return math.log(u)

    return sorted(candidates, key=lambda c: (-straw(c), c))


class PlacementStrategy(ABC):
    """Maps (file_id, chunk_index) to a server index in [0, n_servers)."""

    def __init__(self, n_servers: int) -> None:
        if n_servers < 1:
            raise ValueError("need at least one server")
        self.n_servers = n_servers

    @abstractmethod
    def place(self, file_id: int, chunk: int) -> int:
        """Server index holding the chunk."""

    @property
    @abstractmethod
    def name(self) -> str: ...


class RoundRobinPlacement(PlacementStrategy):
    """PVFS-style: stripe from a per-file starting server."""

    @property
    def name(self) -> str:
        return "round-robin"

    def place(self, file_id: int, chunk: int) -> int:
        return (file_id + chunk) % self.n_servers
