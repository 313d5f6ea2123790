"""IOR-style benchmark driver (the community tool the report's sites use).

IOR writes a shared file in ``transfer_size`` units, then re-reads and
verifies rank-stamped data.  ``run_ior_real`` executes it against the
*real* PLFS through the MPI-IO adapter and verifies every byte; the same
N-1 patterns run on the simulated PFS through
:mod:`repro.plfs.simbridge` (``n1_strided``/``n1_segmented`` patterns).

Example
-------
>>> import tempfile
>>> from repro.plfs.vfs import Plfs
>>> from repro.workloads.ior import IORConfig, run_ior_real
>>> with tempfile.TemporaryDirectory() as tmp:
...     result = run_ior_real(IORConfig(n_ranks=4, transfer_size=1024), Plfs(tmp))
>>> result.verified, result.config.total_bytes
(True, 32768)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpi import run_spmd
from repro.obs import tracer as _obs_tracer
from repro.plfs.mpiio import PlfsMPIIO
from repro.plfs.vfs import Plfs

PATTERNS = ("n1-strided", "n1-segmented")


@dataclass(frozen=True)
class IORConfig:
    """One IOR run: each rank writes ``segments`` x ``transfer_size``."""

    n_ranks: int = 4
    transfer_size: int = 64 * 1024
    segments: int = 8
    pattern: str = "n1-strided"
    verify: bool = True

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}")
        if min(self.n_ranks, self.transfer_size, self.segments) < 1:
            raise ValueError("n_ranks, transfer_size, segments must be >= 1")

    @property
    def total_bytes(self) -> int:
        return self.n_ranks * self.transfer_size * self.segments

    def offsets(self, rank: int) -> list[int]:
        t, n, s = self.transfer_size, self.n_ranks, self.segments
        if self.pattern == "n1-strided":
            return [(i * n + rank) * t for i in range(s)]
        return [(rank * s + i) * t for i in range(s)]

    def stamp(self, rank: int, segment: int) -> bytes:
        """Rank/segment-tagged payload, verifiable on read-back."""
        tag = f"r{rank:04d}s{segment:06d}".encode()
        reps = self.transfer_size // len(tag) + 1
        return (tag * reps)[: self.transfer_size]


@dataclass
class IORResult:
    config: IORConfig
    write_s: float
    read_s: float
    verified: bool


def run_ior_real(config: IORConfig, plfs: Plfs, path: str = "/ior.out") -> IORResult:
    """Execute the benchmark on real PLFS containers; verify contents.

    Phase timing goes through the observability span API: with an active
    :class:`repro.obs.Observability` the phases are recorded on the job's
    clock (deterministic by default, so benchmark JSON reproduces across
    machines); without one, a wall-clock fallback tracer preserves the
    old ``perf_counter`` semantics.
    """
    offsets = [config.offsets(r) for r in range(config.n_ranks)]
    tracer = _obs_tracer()

    def writer(comm):
        fh = yield from PlfsMPIIO.open(comm, plfs, path, "w")
        for i, off in enumerate(offsets[comm.rank]):
            yield from fh.write_at_all(off, config.stamp(comm.rank, i))
        yield from fh.close()

    with tracer.span(
        "ior.write_phase", ranks=config.n_ranks, pattern=config.pattern
    ) as wsp:
        run_spmd(config.n_ranks, writer)

    def reader(comm):
        nonlocal_ok = True
        fh = yield from PlfsMPIIO.open(comm, plfs, path, "r")
        for i, off in enumerate(offsets[comm.rank]):
            data = yield from fh.read_at_all(off, config.transfer_size)
            if config.verify and data != config.stamp(comm.rank, i):
                nonlocal_ok = False
        yield from fh.close()
        return nonlocal_ok

    with tracer.span(
        "ior.read_phase", ranks=config.n_ranks, pattern=config.pattern
    ) as rsp:
        oks = run_spmd(config.n_ranks, reader)
    verified = all(oks)
    return IORResult(
        config=config, write_s=wsp.duration, read_s=rsp.duration, verified=verified
    )

