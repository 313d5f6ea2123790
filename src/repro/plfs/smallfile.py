"""PLFS small-file mode (PDSI follow-on #7: "pack small files into a
smaller number of bigger containers").

File-per-process workloads with *tiny* files invert PLFS's usual problem:
the data is fine, the metadata storm (N creates) kills the MDS.  Small-
file mode stores many logical files inside one container: each writer has
one packed data dropping plus a name-log dropping of records::

    (name, length, physical_offset, timestamp)

Each record is one write-once blob.  Read-side, the name logs merge by
timestamp (latest record per name wins), exactly the PLFS index idiom
lifted from byte ranges to names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Optional

from repro.plfs.container import Container
from repro.plfs.filehandle import WriteClock


@dataclass(frozen=True)
class NameRecord:
    name: str
    length: int
    physical_offset: int
    timestamp: float
    writer: int = 0


class SmallFileWriter:
    """One writer's channel into a small-file container."""

    def __init__(self, container: Container, writer: str, clock: Optional[WriteClock] = None) -> None:
        self.container = container
        self.writer = writer
        self.clock = clock or WriteClock()
        paths = container.dropping_paths(f"sf.{writer}")
        self._data: BinaryIO = open(paths.data_path, "ab")
        namelog_path = paths.data_path.parent / f"dropping.names.sf.{writer}"
        self._namelog = open(namelog_path, "a")
        self._physical = self._data.tell()
        self._closed = False
        container.mark_open(f"sf.{writer}")

    def create(self, name: str, data: bytes) -> None:
        """Store a small logical file (write-once)."""
        self._check_open()
        if "\n" in name or not name:
            raise ValueError("names must be non-empty and newline-free")
        self._data.write(data)
        rec = {"name": name, "len": len(data), "off": self._physical, "ts": self.clock.tick()}
        self._namelog.write(json.dumps(rec) + "\n")
        self._physical += len(data)

    def close(self) -> None:
        if self._closed:
            return
        self._data.close()
        self._namelog.close()
        self.container.mark_closed(f"sf.{self.writer}")
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("small-file writer is closed")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class SmallFileReader:
    """Merged view over all writers' name logs."""

    def __init__(self, container: Container) -> None:
        self.container = container
        self._latest: dict[str, NameRecord] = {}
        self._data_paths: list[Path] = []
        for namelog in sorted(container.path.glob("hostdir.*/dropping.names.*")):
            writer = namelog.name.removeprefix("dropping.names.")
            data_path = namelog.parent / f"dropping.data.{writer}"
            if not data_path.exists():
                continue
            self._data_paths.append(data_path)
            widx = len(self._data_paths) - 1
            for line in namelog.read_text().splitlines():
                d = json.loads(line)
                rec = NameRecord(d["name"], d["len"], d["off"], d["ts"], widx)
                prev = self._latest.get(rec.name)
                if prev is None or rec.timestamp > prev.timestamp:
                    self._latest[rec.name] = rec

    def names(self) -> list[str]:
        return sorted(self._latest)

    def read(self, name: str) -> bytes:
        rec = self._latest.get(name)
        if rec is None:
            raise FileNotFoundError(name)
        with open(self._data_paths[rec.writer], "rb") as f:
            f.seek(rec.physical_offset)
            data = f.read(rec.length)
        if len(data) != rec.length:
            raise IOError(f"short read for packed file {name!r}")
        return data


def backing_file_count(container: Container) -> int:
    """Physical files the packed container occupies — the metadata-storm
    metric: N logical files cost O(#writers) backing files, not O(N)."""
    return sum(1 for _ in container.path.rglob("*") if _.is_file())
