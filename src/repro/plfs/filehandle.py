"""Write and read handles over a PLFS container.

A :class:`PlfsWriteHandle` belongs to exactly one writer (one rank): its
writes — at any logical offsets, any sizes — append to that writer's data
dropping and log index records.  A :class:`PlfsReadHandle` merges all index
droppings once at open and serves random reads.

Timestamps for last-writer-wins resolution come from a shared
:class:`WriteClock`, a monotone counter all handles of a container
increment; with a single OS process this totally orders writes, matching
what wall-clock stamps give real PLFS.
"""

from __future__ import annotations

import itertools
import threading
import zlib
from typing import BinaryIO, Optional

from repro.obs import current as _current_obs
from repro.plfs.container import Container
from repro.plfs.index import RECORD_SIZE, GlobalIndex, pack_entry


class WriteClock:
    """Monotone, thread-safe logical clock shared by a container's writers."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    def tick(self) -> float:
        with self._lock:
            return float(next(self._counter))


# The data dropping's file buffer.  Python sizes a file's buffer to
# st_blksize, 4 KiB on common file systems, which makes every 4 KiB record
# one write(2): 131,072 such appends round-robin into 16 files (page cache,
# 2-vCPU Xeon VM) take 0.44-0.45 s at the default buffer and 0.20-0.25 s at
# 64 KiB or 1 MiB.  1 MiB per open writer is the memory it costs.
DATA_FILE_BUFFER = 1 << 20


class PlfsWriteHandle:
    """Single-writer append channel into a container.

    Parameters
    ----------
    container: target container (must already exist).
    writer: unique writer id ("<host>.<pid>" in real PLFS; any string).
    clock: the container's shared :class:`WriteClock`.
    index_buffer_records: index records are buffered and flushed in
        batches.
    compress: zlib-compress each payload into the data dropping
        ("compress checkpoints on the fly", PDSI follow-on #3); index
        records carry both logical and stored lengths.
    data_buffer_bytes: batch payloads in memory and hand them to the
        data dropping in large chunks ("batch delayed writes for write
        speed", follow-on #4); ``data_flushes`` counts those hand-overs.
        0 hands each payload over as it is written.  Either way the data
        file itself is buffered (:data:`DATA_FILE_BUFFER`), and every
        index batch is written only after the data it points at.
        Physical offsets are assigned at buffer time, so indexing is
        unaffected.
    """

    def __init__(
        self,
        container: Container,
        writer: str,
        clock: Optional[WriteClock] = None,
        index_buffer_records: int = 1024,
        compress: bool = False,
        data_buffer_bytes: int = 0,
    ) -> None:
        if data_buffer_bytes < 0:
            raise ValueError("data_buffer_bytes must be >= 0")
        self.container = container
        self.writer = writer
        self.clock = clock or WriteClock()
        self.compress = compress
        paths = container.dropping_paths(writer)
        self._data: BinaryIO = open(paths.data_path, "ab", buffering=DATA_FILE_BUFFER)
        self._index: BinaryIO = open(paths.index_path, "ab")
        self._index_buf = bytearray()
        self._index_buffer_bytes = index_buffer_records * RECORD_SIZE
        self._data_buf = bytearray()
        self._data_buffer_bytes = data_buffer_bytes
        self._physical = self._data.tell()
        self._max_eof = 0
        self._bytes_written = 0
        self._stored_bytes = 0
        self._closed = False
        self.writes = 0
        self.data_flushes = 0
        obs = _current_obs()
        if obs is not None:
            self._c_obs_bytes = obs.metrics.counter("plfs.bytes_written", writer=writer)
            self._c_obs_writes = obs.metrics.counter("plfs.writes", writer=writer)
        else:
            self._c_obs_bytes = self._c_obs_writes = None
        container.mark_open(writer)

    # -- write path -----------------------------------------------------
    def write(self, data: bytes, logical_offset: int) -> int:
        """Append ``data`` destined for ``logical_offset``; returns len."""
        if self._closed:
            raise ValueError("write handle is closed")
        if logical_offset < 0:
            raise ValueError("negative logical offset")
        n = len(data)
        if n == 0:
            return 0
        ts = self.clock.tick()
        if self.compress:
            stored = zlib.compress(bytes(data), 1)
            # incompressible payloads are kept raw (stored == logical)
            if len(stored) >= n:
                stored = bytes(data)
        else:
            stored = bytes(data) if not isinstance(data, bytes) else data
        self._index_buf += pack_entry(
            logical_offset, n, self._physical, ts, stored_length=len(stored)
        )
        if self._data_buffer_bytes:
            self._data_buf += stored
            if len(self._data_buf) >= self._data_buffer_bytes:
                self._flush_data()
        else:
            self._data.write(stored)
            self.data_flushes += 1
        if len(self._index_buf) >= self._index_buffer_bytes:
            self._flush_index()
        self._physical += len(stored)
        self._max_eof = max(self._max_eof, logical_offset + n)
        self._bytes_written += n
        self._stored_bytes += len(stored)
        self.writes += 1
        if self._c_obs_bytes is not None:
            self._c_obs_bytes.value += n
            self._c_obs_writes.value += 1.0
        return n

    def _flush_data(self) -> None:
        if self._data_buf:
            self._data.write(self._data_buf)
            self._data_buf.clear()
            self.data_flushes += 1

    def _flush_index(self) -> None:
        """Write out all pending data, then the index batch that points at it,
        so an index record never reaches the file before its bytes."""
        self._flush_data()
        self._data.flush()
        self._index.write(self._index_buf)
        self._index_buf.clear()
        self._index.flush()

    def compression_ratio(self) -> float:
        """logical bytes / stored bytes (1.0 when not compressing)."""
        return self._bytes_written / self._stored_bytes if self._stored_bytes else 1.0

    def sync(self) -> None:
        """Flush buffered data and index records to the backing store."""
        if self._closed:
            raise ValueError("write handle is closed")
        self._flush_index()

    def close(self) -> None:
        """Flush, drop a metadata record, and mark the writer closed."""
        if self._closed:
            return
        self._flush_index()
        self._data.close()
        self._index.close()
        self.container.drop_meta(self.writer, self._max_eof, self._bytes_written)
        self.container.mark_closed(self.writer)
        self._closed = True

    def __enter__(self) -> "PlfsWriteHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PlfsReadHandle:
    """Random-access reads over a container's merged global index."""

    def __init__(self, container: Container, compact_index: bool = True) -> None:
        self.container = container
        pairs = [(dp.data_path, dp.index_path) for dp in container.iter_droppings()]
        self.index = GlobalIndex.from_droppings(pairs, compact=compact_index)
        self._files: dict[int, BinaryIO] = {}
        self._closed = False

    @property
    def size(self) -> int:
        return self.index.eof

    def read(self, offset: int, length: int) -> bytes:
        """Read up to ``length`` bytes at ``offset``; holes read as zeros.

        Returns fewer bytes only when the range extends past logical EOF.
        """
        if self._closed:
            raise ValueError("read handle is closed")
        if offset < 0 or length < 0:
            raise ValueError("negative offset/length")
        length = max(0, min(length, self.size - offset))
        if length == 0:
            return b""
        out = bytearray(length)
        self.index.read_into(out, offset, self._files)
        return bytes(out)

    def close(self) -> None:
        for f in self._files.values():
            f.close()
        self._files.clear()
        self._closed = True

    def __enter__(self) -> "PlfsReadHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
