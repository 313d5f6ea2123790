"""POSIX-like facade over PLFS containers (what FUSE would mount).

:class:`Plfs` maps a logical namespace onto a backing directory: each
logical *file* is a container, logical *directories* are real directories.
The API mirrors the syscalls the report's FUSE deployment intercepts:
``open``, ``read``/``write`` (via handles), ``stat``, ``unlink``,
``rename``, ``truncate``, ``mkdir``, ``readdir``.

Limitations faithful to real PLFS: a file open for writing has an
indeterminate ``stat`` size until writers close (we fall back to parsing
indices); shrinking ``truncate`` to a non-zero size is unsupported.

Example
-------
>>> import tempfile
>>> from repro.plfs.vfs import Plfs
>>> tmp = tempfile.TemporaryDirectory()
>>> fs = Plfs(tmp.name)
>>> fs.mkdir("/runs")
>>> fs.write_file("/runs/ckpt", b"abc")
>>> fs.rename("/runs/ckpt", "/runs/ckpt.1")
>>> fs.truncate("/runs/ckpt.1", 5)
>>> fs.read_file("/runs/ckpt.1") == b"abc" + bytes(2)
True
>>> fs.readdir("/runs")
['ckpt.1']
>>> fs.unlink("/runs/ckpt.1")
>>> fs.readdir("/runs")
[]
>>> tmp.cleanup()
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.plfs.container import Container, is_container
from repro.plfs.filehandle import PlfsReadHandle, PlfsWriteHandle, WriteClock
from repro.plfs.index import GlobalIndex


class Plfs:
    """A mounted PLFS namespace rooted at ``backing``."""

    def __init__(self, backing: os.PathLike | str) -> None:
        self.backing = Path(backing)
        self.backing.mkdir(parents=True, exist_ok=True)
        self._clocks: dict[str, WriteClock] = {}

    # -- path plumbing -----------------------------------------------------
    def _resolve(self, path: str) -> Path:
        rel = path.lstrip("/")
        if not rel:
            raise ValueError("empty path")
        p = (self.backing / rel).resolve()
        if self.backing.resolve() not in p.parents and p != self.backing.resolve():
            raise ValueError(f"path {path!r} escapes the mount")
        return p

    def _clock(self, path: str) -> WriteClock:
        key = path.lstrip("/")
        clock = self._clocks.get(key)
        if clock is None:
            clock = WriteClock()
            self._clocks[key] = clock
        return clock

    # -- namespace -----------------------------------------------------------
    def exists(self, path: str) -> bool:
        return is_container(self._resolve(path))

    def mkdir(self, path: str) -> None:
        p = self._resolve(path)
        if is_container(p):
            raise FileExistsError(f"{path} is a file")
        p.mkdir(parents=True, exist_ok=True)

    def readdir(self, path: str = "/") -> list[str]:
        p = self._resolve(path) if path.strip("/") else self.backing
        if is_container(p):
            raise NotADirectoryError(path)
        out = []
        for entry in sorted(p.iterdir()):
            out.append(entry.name)
        return out

    def unlink(self, path: str) -> None:
        p = self._resolve(path)
        if not is_container(p):
            raise FileNotFoundError(path)
        Container.open(p).remove()
        self._clocks.pop(path.lstrip("/"), None)

    def rename(self, old: str, new: str) -> None:
        src = self._resolve(old)
        if not is_container(src):
            raise FileNotFoundError(old)
        dst = self._resolve(new)
        if is_container(dst):
            Container.open(dst).remove()
        src.rename(dst)
        clock = self._clocks.pop(old.lstrip("/"), None)
        if clock is not None:
            self._clocks[new.lstrip("/")] = clock

    def create(self, path: str) -> None:
        """Create an empty logical file (idempotent)."""
        p = self._resolve(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        Container.create(p)

    # -- open ------------------------------------------------------------------
    def open_write(
        self,
        path: str,
        writer: str = "w0",
        create: bool = True,
        compress: bool = False,
        data_buffer_bytes: int = 0,
    ) -> PlfsWriteHandle:
        """Open for writing as ``writer`` (each concurrent writer unique).

        ``compress`` and ``data_buffer_bytes`` enable the on-the-fly
        checkpoint compression and delayed-write batching extensions.
        """
        p = self._resolve(path)
        if create:
            p.parent.mkdir(parents=True, exist_ok=True)
            container = Container.create(p)
        else:
            container = Container.open(p)
        return PlfsWriteHandle(
            container,
            writer,
            clock=self._clock(path),
            compress=compress,
            data_buffer_bytes=data_buffer_bytes,
        )

    def open_read(self, path: str) -> PlfsReadHandle:
        p = self._resolve(path)
        if not is_container(p):
            raise FileNotFoundError(path)
        return PlfsReadHandle(Container.open(p))

    # -- whole-file conveniences ---------------------------------------------
    def write_file(self, path: str, data: bytes) -> None:
        with self.open_write(path) as h:
            h.write(data, 0)

    def read_file(self, path: str) -> bytes:
        with self.open_read(path) as h:
            return h.read(0, h.size)

    # -- stat --------------------------------------------------------------------
    def stat(self, path: str) -> dict:
        p = self._resolve(path)
        if not is_container(p):
            raise FileNotFoundError(path)
        c = Container.open(p)
        fast = c.stat_fast()
        if fast is not None:
            size, total = fast
        else:  # writers still open: authoritative but slower index parse
            pairs = [(dp.data_path, dp.index_path) for dp in c.iter_droppings()]
            gi = GlobalIndex.from_droppings(pairs)
            size, total = gi.eof, gi.covered_bytes()
        n_droppings = sum(1 for _ in c.iter_droppings())
        return {
            "size": size,
            "bytes_in_droppings": total,
            "droppings": n_droppings,
            "open_writers": len(c.open_writers()),
        }

    # -- truncate --------------------------------------------------------------
    def truncate(self, path: str, size: int = 0) -> None:
        p = self._resolve(path)
        if not is_container(p):
            raise FileNotFoundError(path)
        c = Container.open(p)
        if size == 0:
            # drop all data: recreate an empty container
            c.remove()
            Container.create(p)
            return
        current = self.stat(path)["size"]
        if size < current:
            raise NotImplementedError(
                "shrinking truncate to a non-zero size is unsupported (as in PLFS)"
            )
        if size > current:
            # extend: PLFS grows lazily; an explicit zero byte pins the new EOF
            with self.open_write(path, writer="truncate", create=False) as h:
                h.write(b"\0", size - 1)
