"""MPI-IO-like collective adapter: PLFS under ``MPI_File_*`` semantics.

Real PLFS ships an ROMIO ADIO driver so MPI applications get the container
transparently through ``MPI_File_open`` / ``MPI_File_write_at_all``.  This
module provides the same shape over :mod:`repro.mpi`: rank functions (which
are generators) call the collective methods with ``yield from``.

Example
-------
>>> from repro.mpi import run_spmd
>>> from repro.plfs.vfs import Plfs
>>> from repro.plfs.mpiio import PlfsMPIIO
>>> def app(comm, plfs):
...     fh = yield from PlfsMPIIO.open(comm, plfs, "/ckpt", "w")
...     yield from fh.write_at_all(comm.rank * 4, comm.rank.to_bytes(4, "little"))
...     yield from fh.close()
>>> import tempfile
>>> tmp = tempfile.TemporaryDirectory()
>>> plfs = Plfs(tmp.name)
>>> run_spmd(4, app, plfs)
[None, None, None, None]
>>> list(plfs.read_file("/ckpt")[::4])
[0, 1, 2, 3]
>>> tmp.cleanup()
"""

from __future__ import annotations

from typing import Optional

from repro.mpi.runtime import Comm
from repro.plfs.filehandle import PlfsReadHandle, PlfsWriteHandle
from repro.plfs.vfs import Plfs


class PlfsMPIIO:
    """Per-rank handle produced by the collective :meth:`open`."""

    def __init__(
        self,
        comm: Comm,
        plfs: Plfs,
        path: str,
        mode: str,
        wh: Optional[PlfsWriteHandle],
        rh: Optional[PlfsReadHandle],
    ) -> None:
        self.comm = comm
        self.plfs = plfs
        self.path = path
        self.mode = mode
        self._wh = wh
        self._rh = rh
        self._closed = False

    # -- collectives (use with `yield from`) -------------------------------
    @classmethod
    def open(cls, comm: Comm, plfs: Plfs, path: str, mode: str):
        """Collective open; every rank must call with identical arguments.

        ``mode``: 'w' (create/write) or 'r' (read).
        """
        if mode not in ("w", "r"):
            raise ValueError(f"mode must be 'w' or 'r', got {mode!r}")
        modes = yield comm.allgather((path, mode))
        if len(set(modes)) != 1:
            from repro.mpi.runtime import MPIError

            raise MPIError(f"collective open mismatch: {set(modes)}")
        wh = rh = None
        if mode == "w":
            if comm.rank == 0:
                plfs.create(path)
            yield comm.barrier()  # container exists before other ranks write
            wh = plfs.open_write(path, writer=f"rank{comm.rank}", create=False)
        else:
            yield comm.barrier()
            rh = plfs.open_read(path)
        return cls(comm, plfs, path, mode, wh, rh)

    def write_at(self, offset: int, data: bytes):
        """Independent write at an explicit offset."""
        self._need_write()
        self._wh.write(data, offset)
        return len(data)
        yield  # pragma: no cover - makes this a generator for API symmetry

    def write_at_all(self, offset: int, data: bytes):
        """Collective write: all ranks participate, barrier-synchronized."""
        self._need_write()
        yield self.comm.barrier()
        self._wh.write(data, offset)
        yield self.comm.barrier()
        return len(data)

    def read_at(self, offset: int, length: int):
        self._need_read()
        return self._rh.read(offset, length)
        yield  # pragma: no cover

    def read_at_all(self, offset: int, length: int):
        self._need_read()
        yield self.comm.barrier()
        data = self._rh.read(offset, length)
        yield self.comm.barrier()
        return data

    def size(self):
        """Collective: logical file size agreed across ranks."""
        local = self._rh.size if self._rh else self._wh._max_eof
        sizes = yield self.comm.allgather(local)
        return max(sizes)

    def sync(self):
        if self._wh:
            self._wh.sync()
        yield self.comm.barrier()

    def close(self):
        """Collective close; metadata is complete when it returns."""
        if not self._closed:
            if self._wh:
                self._wh.close()
            if self._rh:
                self._rh.close()
            self._closed = True
        yield self.comm.barrier()

    # -- guards ---------------------------------------------------------------
    def _need_write(self) -> None:
        if self._closed or self._wh is None:
            raise ValueError("file not open for writing")

    def _need_read(self) -> None:
        if self._closed or self._rh is None:
            raise ValueError("file not open for reading")
