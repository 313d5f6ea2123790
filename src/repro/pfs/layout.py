"""Round-robin stripe layout: logical extents -> per-server extents."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Extent:
    """One contiguous piece of a request on one server.

    ``server_offset`` is the offset inside the server-local *logical* object
    for this file (stripe-chunk index on this server * stripe_unit + intra-
    chunk offset); the server maps it to a disk address at allocation time.
    """

    server: int
    server_offset: int
    logical_offset: int
    length: int


class StripeLayout:
    """RAID-0-style round-robin striping across ``n_servers``."""

    def __init__(self, n_servers: int, stripe_unit: int) -> None:
        if n_servers < 1 or stripe_unit < 1:
            raise ValueError("n_servers and stripe_unit must be positive")
        self.n_servers = n_servers
        self.stripe_unit = stripe_unit

    def server_of(self, offset: int, shift: int = 0) -> int:
        """Server holding ``offset``; ``shift`` rotates the starting server.

        Real deployments start each file on a different server (round-robin
        or random OST selection) so that many small files spread load;
        callers pass a per-file shift (e.g. the file id).
        """
        return (offset // self.stripe_unit + shift) % self.n_servers

    def extents(self, offset: int, length: int, shift: int = 0) -> Iterator[Extent]:
        """Split ``[offset, offset+length)`` into per-server extents.

        Extents are yielded in logical-offset order; consecutive chunks that
        land on the same server are *not* merged (they are not contiguous in
        the server-local object unless n_servers == 1).
        """
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be non-negative")
        unit = self.stripe_unit
        pos = offset
        end = offset + length
        while pos < end:
            chunk = pos // unit
            within = pos - chunk * unit
            take = min(unit - within, end - pos)
            server = (chunk + shift) % self.n_servers
            local_chunk = chunk // self.n_servers
            yield Extent(
                server=server,
                server_offset=local_chunk * unit + within,
                logical_offset=pos,
                length=take,
            )
            pos += take

    def merged_extents(self, offset: int, length: int, shift: int = 0) -> list[Extent]:
        """Extents with server-locally contiguous runs merged.

        With one server every chunk is adjacent, so a big logical write
        becomes one big server write; with many servers merging only joins
        the degenerate adjacent cases.
        """
        return merge_extents(self.extents(offset, length, shift=shift))


def merge_extents(extents: Iterable[Extent]) -> list[Extent]:
    """Merge server-locally contiguous runs of logically adjacent extents."""
    merged: list[Extent] = []
    by_server: dict[int, Extent] = {}
    for ext in extents:
        prev = by_server.get(ext.server)
        if (
            prev is not None
            and prev.server_offset + prev.length == ext.server_offset
            and merged
            and merged[-1] is prev
        ):
            merged[-1] = Extent(
                server=ext.server,
                server_offset=prev.server_offset,
                logical_offset=prev.logical_offset,
                length=prev.length + ext.length,
            )
            by_server[ext.server] = merged[-1]
        else:
            merged.append(ext)
            by_server[ext.server] = ext
    return merged


class PlacedLayout:
    """Strategy-driven chunk→server mapping, sticky per ``(file, chunk)``.

    The pluggable sibling of :class:`StripeLayout`: a
    :class:`repro.placement.strategies.PlacementStrategy` decides which
    server holds each stripe chunk.  Because a strategy may be
    *time-varying* (congestion-aware placement consults live fabric
    metrics), the decision is made once — when a chunk is first touched,
    i.e. when `SimPFS` assigns stripes for new data — and cached, so
    re-writes and reads always find the bytes where they were placed.

    ``server_offset`` uses per-server arrival order (the chunk's index
    among this file's chunks on that server), matching how a server-side
    object store would allocate space for whatever lands on it.
    """

    def __init__(self, strategy, stripe_unit: int) -> None:
        if stripe_unit < 1:
            raise ValueError("stripe_unit must be positive")
        self.strategy = strategy
        self.stripe_unit = stripe_unit
        self._chunk_server: dict[tuple[int, int], int] = {}
        self._chunk_local: dict[tuple[int, int], int] = {}
        self._server_chunks: dict[tuple[int, int], int] = {}  # (file, server) -> count

    def server_of(self, file_id: int, chunk: int) -> int:
        """The chunk's server — decided on first touch, sticky after."""
        key = (file_id, chunk)
        server = self._chunk_server.get(key)
        if server is None:
            server = self.strategy.place(file_id, chunk)
            if not 0 <= server < self.strategy.n_servers:
                raise ValueError(
                    f"strategy {self.strategy.name!r} placed chunk on "
                    f"server {server} of {self.strategy.n_servers}"
                )
            self._chunk_server[key] = server
            local = self._server_chunks.get((file_id, server), 0)
            self._chunk_local[key] = local
            self._server_chunks[(file_id, server)] = local + 1
        return server

    def extents(self, file_id: int, offset: int, length: int) -> Iterator[Extent]:
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be non-negative")
        unit = self.stripe_unit
        pos = offset
        end = offset + length
        while pos < end:
            chunk = pos // unit
            within = pos - chunk * unit
            take = min(unit - within, end - pos)
            server = self.server_of(file_id, chunk)
            local_chunk = self._chunk_local[(file_id, chunk)]
            yield Extent(
                server=server,
                server_offset=local_chunk * unit + within,
                logical_offset=pos,
                length=take,
            )
            pos += take

    def merged_extents(self, file_id: int, offset: int, length: int) -> list[Extent]:
        return merge_extents(self.extents(file_id, offset, length))
