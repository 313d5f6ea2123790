"""PLFS index records, readers/writers, and the merged global index.

Every logical write appends one fixed-size binary record to the writer's
index dropping::

    (logical_offset: int64, length: int64, physical_offset: int64,
     stored_length: int64, timestamp: float64)

``stored_length`` is the bytes actually occupying the data dropping; it
differs from ``length`` only when the writer compresses payloads
("compress checkpoints on the fly", PDSI follow-on #3).

Records from all droppings are merged in timestamp order into an
:class:`~repro.plfs.intervalmap.IntervalMap`, giving last-writer-wins
semantics across concurrent writers (matching real PLFS, which stamps
records with the write time).  Timestamps here come from a container-wide
monotone counter so runs are deterministic.

The merge is columnar: a dropping is decoded by one ``np.frombuffer``
into a record array (the six :class:`IndexEntry` fields, one row per
record), droppings are concatenated in dropping order and stably sorted
by timestamp, and the interval map's payload is the row number.  Rows
that overlap no other row commute with every other insert, so they are
bulk-loaded; only the clashing rest goes through ``IntervalMap.insert``
one at a time, in timestamp order.  ``read_into`` walks the map's pieces
and gathers the ones that continue each other in one dropping's data into
a run, read by one ``preadv`` straight into the caller's buffer (an N-1
strided read is one call per dropping); an :class:`IndexEntry` object
exists only for callers of ``lookup()``.

Compaction merges records that are contiguous both logically and
physically within one dropping, unless another record stamped inside the
run overlaps it — the optimization the report lists as "compress
read-back indexes".
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, fields
from itertools import starmap
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from repro.obs import current as _current_obs
from repro.plfs.intervalmap import IntervalMap, Segment

_RECORD = struct.Struct("<qqqqd")
RECORD_SIZE = _RECORD.size
IOV_MAX = os.sysconf("SC_IOV_MAX")     # buffers one preadv may take
# the same 40 bytes as a numpy record
_DISK = np.dtype([
    ("logical_offset", "<i8"), ("length", "<i8"), ("physical_offset", "<i8"),
    ("stored_length", "<i8"), ("timestamp", "<f8"),
])


@dataclass(frozen=True)
class IndexEntry:
    """One decoded index record, tagged with its dropping of origin."""

    logical_offset: int
    length: int
    physical_offset: int
    timestamp: float
    dropping: int = 0  # index into GlobalIndex.data_paths
    stored_length: int = -1  # bytes in the data dropping; -1 = length

    @property
    def compressed(self) -> bool:
        return self.stored_length >= 0 and self.stored_length != self.length


def pack_entry(
    logical_offset: int,
    length: int,
    physical_offset: int,
    timestamp: float,
    stored_length: int = -1,
) -> bytes:
    if stored_length < 0:
        stored_length = length
    return _RECORD.pack(logical_offset, length, physical_offset, stored_length, timestamp)


# -- rows: one record array row per index record ---------------------------
# A row is an IndexEntry's fields, in its order and with its meaning
# (stored_length -1 = length), so IndexEntry(*row) is the entry.
_ROW = np.dtype([(f.name, "<f8" if f.type == "float" else "<i8") for f in fields(IndexEntry)])
_row_of = attrgetter(*_ROW.names)


def _read_rows(path: Path | str, dropping: int) -> np.ndarray:
    """Decode one index dropping into rows tagged with ``dropping``."""
    raw = Path(path).read_bytes()
    if len(raw) % RECORD_SIZE:
        raise ValueError(f"{path}: truncated index dropping ({len(raw)} bytes)")
    disk = np.frombuffer(raw, dtype=_DISK)
    rows = np.empty(len(disk), dtype=_ROW)
    for name in _DISK.names:
        rows[name] = disk[name]
    rows["stored_length"][disk["stored_length"] == disk["length"]] = -1
    rows["dropping"] = dropping
    return rows


def _rows(entries: Iterable[IndexEntry]) -> np.ndarray:
    return np.array(list(map(_row_of, entries)), dtype=_ROW)


def _compressed(rows: np.ndarray) -> np.ndarray:
    """:attr:`IndexEntry.compressed`, per row."""
    return (rows["stored_length"] >= 0) & (rows["stored_length"] != rows["length"])


def read_index_dropping(path: Path | str) -> list[IndexEntry]:
    """Decode every record in one index dropping (dropping id left 0)."""
    return list(starmap(IndexEntry, _read_rows(path, 0).tolist()))


def _clashes(lo: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intervals ``[lo, end)`` in start order, and which of them overlap another.

    Returns the start-order permutation and, per position in it, whether
    that interval overlaps any other.  In start order an interval overlaps
    an earlier one when it starts below the running max of ends, and a
    later one when the next starts below its own end.  Empty intervals
    may be reported as clashing.
    """
    by_start = np.argsort(lo, kind="stable")
    s, e = lo[by_start], end[by_start]
    clash = np.zeros(len(lo), dtype=bool)
    clash[1:] = s[1:] < np.maximum.accumulate(e)[:-1]
    clash[:-1] |= s[1:] < e[:-1]
    return by_start, clash


def _runs(joins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last row of every run, given which neighbours join."""
    first = np.flatnonzero(np.concatenate(([True], ~joins)))
    return first, np.append(first[1:], len(joins) + 1) - 1


def _compact(rows: np.ndarray) -> np.ndarray:
    """The compaction rule: one row per run of rows that continue each other.

    A row joins the run before it when both come from the same dropping,
    neither is compressed, it continues the run logically and physically
    and its timestamp is no older.  A merged run ends — logically,
    physically and in time — where its last row ends.

    Taking the last stamp promotes the run's earlier rows, so a run must
    not merge across another row of ``rows`` that overlaps the run's
    bytes and is stamped inside the run's stamp range: the run is cut
    between the two neighbours whose stamps enclose that row's.  Every
    byte then keeps the winner it had uncompacted, while sequential
    single-writer runs and N-1 segments (which nothing overlaps) still
    merge whole.
    """
    if not len(rows):
        return rows
    lo, ln, po = rows["logical_offset"], rows["length"], rows["physical_offset"]
    ts, dropping = rows["timestamp"], rows["dropping"]
    raw = ~_compressed(rows)
    joins = (
        (dropping[1:] == dropping[:-1])
        & raw[1:] & raw[:-1]
        & (lo[:-1] + ln[:-1] == lo[1:])
        & (po[:-1] + ln[:-1] == po[1:])
        & (ts[:-1] <= ts[1:])
    )
    first, last = _runs(joins)
    if (last > first).any():
        # only a merged run whose bytes overlap another run's can need a cut
        end = lo + ln
        by_start, clash = _clashes(lo[first], end[last])
        suspects = by_start[clash]
        suspects = suspects[last[suspects] > first[suspects]]
        for a, b in zip(first[suspects].tolist(), last[suspects].tolist()):
            # rows other than the run's own that overlap it inside its stamps
            foreign = (
                (np.maximum(lo, lo[a]) < np.minimum(end, end[b]))
                & (ts >= ts[a]) & (ts <= ts[b])
            )
            foreign[a:b + 1] = False
            if foreign.any():
                stamps, t = ts[a:b + 1], ts[foreign]
                lo_j = np.maximum(np.searchsorted(stamps, t, "left") - 1, 0)
                hi_j = np.minimum(np.searchsorted(stamps, t, "right") - 1, b - a - 1)
                for j0, j1 in zip(lo_j.tolist(), hi_j.tolist()):
                    joins[a + j0:a + j1 + 1] = False
        first, last = _runs(joins)
    out = rows[first]
    out["length"] = np.add.reduceat(ln, first)
    out["timestamp"] = ts[last]     # keep the latest stamp for the merged run
    merged = last > first
    out["stored_length"][merged] = out["length"][merged]
    return out


def compact_entries(entries: Sequence[IndexEntry]) -> list[IndexEntry]:
    """Merge runs contiguous in both logical and physical space.

    Only entries from the same dropping with non-decreasing timestamps
    merge, and never across another entry stamped inside the run that
    overlaps it; this preserves last-writer-wins resolution exactly while
    shrinking the index for the common sequential-writer case (often by
    100x or more for checkpoint workloads).
    """
    return list(starmap(IndexEntry, _compact(_rows(entries)).tolist()))


class GlobalIndex:
    """Merged, queryable index for a whole container.

    ``entries`` is an iterable of :class:`IndexEntry`, or the record array
    :meth:`from_droppings` decodes (one row per entry).
    """

    def __init__(
        self, data_paths: Sequence[Path | str], entries: Iterable[IndexEntry] | np.ndarray
    ) -> None:
        self.data_paths = [Path(p) for p in data_paths]
        rows = entries if isinstance(entries, np.ndarray) else _rows(entries)
        obs = _current_obs()
        span = obs.tracer.span("plfs.index.build") if obs is not None else None
        if span is not None:
            span.__enter__()
        self._build(rows)
        if obs is not None:
            obs.metrics.counter("plfs.index.entries_merged").inc(self.n_entries)
            self._c_lookups = obs.metrics.counter("plfs.index.lookups")
            self._c_read_bytes = obs.metrics.counter("plfs.index.bytes_mapped")
            span.span.attrs["entries"] = self.n_entries
            span.__exit__(None, None, None)
        else:
            self._c_lookups = self._c_read_bytes = None

    def _build(self, rows: np.ndarray) -> None:
        """Merge ``rows`` last-writer-wins; ties keep the order given."""
        rows = rows[rows["length"] > 0]
        rows = rows[np.argsort(rows["timestamp"], kind="stable")]
        lo = rows["logical_offset"]
        end = lo + rows["length"]
        if (end < lo).any():
            raise ValueError("index record ends past the int64 logical byte space")
        self._rows = rows
        self.n_entries = len(rows)
        # what read_into needs per piece, as lists: scalar access is its cost
        self._dropping: list[int] = rows["dropping"].tolist()
        self._physical: list[int] = rows["physical_offset"].tolist()
        self._compressed: list[bool] = _compressed(rows).tolist()
        # A row that overlaps no other row yields the same map wherever in
        # the insert sequence it goes, so all of those load at once.
        by_start, clash = _clashes(lo, end)
        alone = by_start[~clash]
        self._map = IntervalMap()
        self._map.load_disjoint(lo[alone], end[alone], alone)
        rest = np.sort(by_start[clash])     # row number = timestamp order
        for row, a, b in zip(rest.tolist(), lo[rest].tolist(), end[rest].tolist()):
            self._map.insert(a, b, row)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_droppings(
        cls,
        pairs: Sequence[tuple[Path | str, Path | str]],
        compact: bool = True,
    ) -> "GlobalIndex":
        """Build from [(data_path, index_path), ...].

        Compaction sees every dropping at once: whether a writer's run
        may merge depends on the other writers' rows.
        """
        rows = np.concatenate([np.empty(0, dtype=_ROW)] + [
            _read_rows(index_path, i) for i, (_, index_path) in enumerate(pairs)
        ])
        return cls([p for p, _ in pairs], _compact(rows) if compact else rows)

    # -- queries -----------------------------------------------------------
    @property
    def eof(self) -> int:
        """Logical file size (one past the last written byte)."""
        return self._map.extent

    def covered_bytes(self) -> int:
        return self._map.covered_bytes()

    def lookup(self, offset: int, length: int) -> list[Segment]:
        """Segments of ``[offset, offset+length)`` present in droppings.

        Each returned segment's payload is the winning :class:`IndexEntry`;
        ``payload_offset`` locates the segment inside that entry.  Byte
        ranges absent from the result are holes (read as zeros).
        """
        if self._c_lookups is not None:
            self._c_lookups.value += 1.0
        item = self._rows.item
        return [
            Segment(start, end, IndexEntry(*item(row)), skip)
            for start, end, row, skip in self._map.pieces(offset, offset + length)
        ]

    def read_into(self, out: bytearray, offset: int, files: dict[int, BinaryIO]) -> int:
        """Fill ``out`` from the droppings; returns bytes that were mapped.

        ``files`` caches open data-dropping file objects by dropping id.
        Holes are left as the buffer's existing (zero) content.  Pieces
        that continue each other in one dropping's data are read as a run,
        one ``preadv`` of up to ``IOV_MAX`` buffers, wherever in ``out``
        they land.
        """
        if self._c_lookups is not None:
            self._c_lookups.value += 1.0
        dropping, physical, compressed = self._dropping, self._physical, self._compressed
        runs: dict[int, list] = {}  # dropping -> [first byte, end byte, buffers]
        mapped = 0
        with memoryview(out) as view:
            for start, end, row, skip in self._map.pieces(offset, offset + len(out)):
                d = dropping[row]
                rel = start - offset
                n = end - start
                mapped += n
                if compressed[row]:
                    # decompress the whole stored blob, slice the segment
                    _, length, phys, _, _, stored = self._rows.item(row)
                    blob = bytearray(stored)
                    self._read_run(files, d, phys, stored, [blob])
                    plain = zlib.decompress(blob)
                    if len(plain) != length:
                        raise IOError("compressed entry decompressed to wrong length")
                    view[rel:rel + n] = plain[skip:skip + n]
                    continue
                phys = physical[row] + skip
                run = runs.get(d)
                if run is not None and run[1] == phys and len(run[2]) < IOV_MAX:
                    run[1] = phys + n
                    run[2].append(view[rel:rel + n])
                else:
                    if run is not None:
                        self._read_run(files, d, run[0], run[1] - run[0], run[2])
                    runs[d] = [phys, phys + n, [view[rel:rel + n]]]
            for d, (first, stop, bufs) in runs.items():
                self._read_run(files, d, first, stop - first, bufs)
        if self._c_read_bytes is not None:
            self._c_read_bytes.value += mapped
        return mapped

    def _read_run(self, files: dict[int, BinaryIO], d: int, first: int, wanted: int,
                  bufs: list) -> None:
        """``preadv`` ``wanted`` bytes at ``first`` of dropping ``d`` into ``bufs``."""
        f = files.get(d)
        if f is None:
            f = files[d] = open(self.data_paths[d], "rb")
        got = os.preadv(f.fileno(), bufs, first)
        if got != wanted:
            raise IOError(
                f"short read from {self.data_paths[d]}: wanted {wanted}, got {got}"
            )
