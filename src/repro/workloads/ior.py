"""IOR-style benchmark driver (the community tool the report's sites use).

IOR writes a shared (or per-process) file in ``transfer_size`` units,
optionally re-reads and verifies rank-stamped data.  Two back ends:

* ``run_ior_real``  — executes against the *real* PLFS through the
  MPI-IO adapter: measures wall-clock and verifies every byte;
* ``run_ior_sim``   — replays the same pattern on the simulated PFS
  (direct or through PLFS) for bandwidth studies at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mpi import run_spmd
from repro.net.params import FabricParams
from repro.obs import tracer as _obs_tracer
from repro.pfs.params import PFSParams
from repro.plfs.mpiio import PlfsMPIIO
from repro.plfs.simbridge import CheckpointResult, run_direct_n1, run_plfs
from repro.plfs.vfs import Plfs
from repro.workloads.patterns import Pattern, n1_segmented, n1_strided

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

    def as_pattern(self) -> Pattern:
        if self.pattern == "n1-strided":
            return n1_strided(self.n_ranks, self.transfer_size, self.segments)
        return n1_segmented(self.n_ranks, self.transfer_size, self.segments)


@dataclass
class IORResult:
    config: IORConfig
    write_s: float
    read_s: float
    verified: bool

    @property
    def write_MBps(self) -> float:
        return self.config.total_bytes / self.write_s / 1e6 if self.write_s else 0.0

    @property
    def read_MBps(self) -> float:
        return self.config.total_bytes / self.read_s / 1e6 if self.read_s else 0.0


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


def run_ior_sim(
    config: IORConfig,
    params: PFSParams,
    via_plfs: bool,
    fabric: Optional[FabricParams] = None,
    placement: object | None = None,
    redundancy=None,
    resilience=None,
    faults=None,
) -> CheckpointResult:
    """Bandwidth of the same pattern on the simulated PFS.

    ``fabric`` overlays a network-fabric configuration (e.g. finite
    switch buffers) and ``placement`` a stripe/server selection policy
    (e.g. ``"congestion"``), so the direct-vs-PLFS comparison can be run
    under congested networks and congestion-aware layouts.
    ``redundancy``/``resilience``/``faults`` run the same pattern in
    degraded mode under an injected :class:`repro.faults.FaultSchedule`
    (see docs/faults.md).
    """
    pattern = config.as_pattern()
    run = run_plfs if via_plfs else run_direct_n1
    return run(
        params,
        pattern,
        fabric=fabric,
        placement=placement,
        redundancy=redundancy,
        resilience=resilience,
        faults=faults,
    )
