"""PLFS — Parallel Log-structured File System (the report's §4.2.3).

PLFS is interposition middleware: a logical file that many processes write
concurrently is physically stored as a *container* directory holding one
append-only **data dropping** per writer plus an **index dropping** of
``(logical offset, length, physical offset, timestamp)`` records.  Writes
therefore always stream sequentially, no matter how small, unaligned, or
interleaved the application's logical pattern is; the logical file's
contents are resolved lazily at read time by merging the indices
(last-writer-wins).

This package is a complete, working implementation operating on any real
backing directory:

- :mod:`repro.plfs.container` — on-disk container format,
- :mod:`repro.plfs.index` — index records, global index, compaction,
- :mod:`repro.plfs.intervalmap` — last-writer-wins interval structure,
- :mod:`repro.plfs.filehandle` — write/read file handles,
- :mod:`repro.plfs.vfs` — POSIX-like facade (open/read/write/stat/...),
- :mod:`repro.plfs.mpiio` — MPI-IO-like collective adapter over
  :mod:`repro.mpi`,
- :mod:`repro.plfs.flatten` — rewrite a container to a flat file,
- :mod:`repro.plfs.simbridge` — mirror the same decomposition onto the
  simulated PFS to measure checkpoint bandwidth (Fig 8 / Fig 2); its
  runners take a :class:`repro.pfs.PFSParams` and a write pattern.
"""

from repro.plfs.container import Container, ContainerError, is_container
from repro.plfs.index import GlobalIndex, IndexEntry, compact_entries
from repro.plfs.intervalmap import IntervalMap, Segment
from repro.plfs.filehandle import PlfsReadHandle, PlfsWriteHandle
from repro.plfs.vfs import Plfs
from repro.plfs.flatten import flatten
from repro.plfs.mpiio import PlfsMPIIO

__all__ = [
    "Container",
    "ContainerError",
    "GlobalIndex",
    "IndexEntry",
    "IntervalMap",
    "Plfs",
    "PlfsMPIIO",
    "PlfsReadHandle",
    "PlfsWriteHandle",
    "Segment",
    "compact_entries",
    "flatten",
    "is_container",
]
