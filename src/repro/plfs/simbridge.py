"""Bridge PLFS's write decomposition onto the simulated parallel FS.

The report's Figure 8 compares checkpoint bandwidth of applications writing
a shared file *directly* on PanFS/Lustre/GPFS against the same pattern
routed *through PLFS*.  The real-file PLFS implementation in this package
shows correctness; this module reproduces the performance claim by
replaying the identical logical write pattern two ways on
:class:`repro.pfs.SimPFS`:

* **direct**: every rank writes its records at their logical offsets into
  one shared striped file (locks, false sharing, seeks — the slow path);
* **plfs**: every rank appends the same bytes to a private log file plus
  32-byte index records, with client-side buffering of the sequential
  stream (the fast path).

Both paths pay their true metadata costs (container/dropping creates for
PLFS, a single create for the shared file).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.faults.resilience import RedundancySpec, ResilienceParams
from repro.faults.schedule import FaultSchedule
from repro.net.params import FabricParams
from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.sim import Simulator

#: bytes per *simulated* PLFS index record.  This does not match the real
#: record (repro.plfs.index.RECORD_SIZE: ``<qqqqd`` = 40 bytes); the value
#: is held by the Fig-8 ``==`` goldens until ROADMAP item 8(a) reconciles it.
INDEX_RECORD_BYTES = 32

#: A write pattern: pattern[rank] = [(logical_offset, nbytes), ...]
Pattern = Sequence[Sequence[tuple[int, int]]]


@dataclass(frozen=True)
class CheckpointResult:
    """Outcome of one simulated checkpoint run."""

    scheme: str
    fs_name: str
    n_ranks: int
    total_bytes: int
    makespan_s: float
    lock_migrations: int
    disk_seeks: int

    @property
    def bandwidth_Bps(self) -> float:
        return self.total_bytes / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def bandwidth_MBps(self) -> float:
        return self.bandwidth_Bps / 1e6


def _total_bytes(pattern: Pattern) -> int:
    return sum(n for rank in pattern for _, n in rank)


def _with_fabric(
    params: PFSParams,
    fabric: Optional[FabricParams],
    placement: object | None = None,
    redundancy: "str | RedundancySpec | None" = None,
    resilience: Optional[ResilienceParams] = None,
) -> PFSParams:
    """Overlay network-fabric / placement / fault-tolerance configuration
    onto the FS parameters, so the direct-vs-PLFS comparison can be run
    under congested networks, alternative stripe/server selection, and
    degraded-mode redundancy (see docs/faults.md)."""
    if fabric is not None:
        params = replace(params, fabric=fabric)
    if placement is not None:
        params = replace(params, placement=placement)
    if redundancy is not None:
        params = replace(params, redundancy=redundancy)
    if resilience is not None:
        params = replace(params, resilience=resilience)
    return params


def run_direct_n1(
    params: PFSParams,
    pattern: Pattern,
    path: str = "/ckpt",
    fabric: Optional[FabricParams] = None,
    placement: object | None = None,
    redundancy: "str | RedundancySpec | None" = None,
    resilience: Optional[ResilienceParams] = None,
    faults: Optional[FaultSchedule] = None,
) -> CheckpointResult:
    """All ranks write their records into one shared file at logical offsets.

    ``faults`` injects a :class:`repro.faults.FaultSchedule` at measurement
    start (event times are relative to the measured run, not file setup).
    Makespans are measured from the last rank's finish time, not the final
    ``sim.now`` — uncancellable timers of a finite ``op_timeout_s`` may
    tick past the real completion.  Under the default
    :data:`repro.faults.NO_RETRIES` there is no timer and the two
    coincide bit for bit.
    """
    params = _with_fabric(params, fabric, placement, redundancy, resilience)
    sim = Simulator()
    pfs = SimPFS(sim, params)
    sim.spawn(pfs.op_create(0, path))
    sim.run()
    start = sim.now
    if faults is not None:
        faults.inject(sim, pfs)
    obs = sim.obs
    root = (
        obs.tracer.start("checkpoint.run", at=start, scheme="direct-n1", fs=params.name)
        if obs is not None
        else None
    )
    finish = [start]

    def rank_proc(rank: int, writes):
        rsp = (
            obs.tracer.start("checkpoint.rank", parent=root, at=sim.now, rank=rank)
            if obs is not None
            else None
        )
        yield from pfs.op_open(rank, path)
        for offset, nbytes in writes:
            yield from pfs.op_write(rank, path, offset, nbytes, parent_span=rsp)
        if rsp is not None:
            rsp.finish(at=sim.now)
        finish.append(sim.now)

    for rank, writes in enumerate(pattern):
        sim.spawn(rank_proc(rank, list(writes)))
    sim.run()
    end = max(finish)
    if root is not None:
        root.finish(at=end)
    return CheckpointResult(
        scheme="direct-n1",
        fs_name=params.name,
        n_ranks=len(pattern),
        total_bytes=_total_bytes(pattern),
        makespan_s=end - start,
        lock_migrations=pfs.total_lock_migrations(),
        disk_seeks=pfs.total_seeks(),
    )


def run_plfs(
    params: PFSParams,
    pattern: Pattern,
    path: str = "/ckpt",
    index_record_bytes: int = INDEX_RECORD_BYTES,
    compression_ratio: float = 1.0,
    fabric: Optional[FabricParams] = None,
    placement: object | None = None,
    redundancy: "str | RedundancySpec | None" = None,
    resilience: Optional[ResilienceParams] = None,
    faults: Optional[FaultSchedule] = None,
) -> CheckpointResult:
    """Same pattern through PLFS: per-rank sequential logs + index stream.

    Client-side buffering coalesces each rank's contiguous appends into
    ``params.write_buffer_bytes`` flushes; index records ride along and are
    flushed at close.  Each rank touches only its own files, so the lock
    manager never migrates anything.

    ``compression_ratio`` > 1 models on-the-fly checkpoint compression
    (PDSI follow-on #3): only ``1/ratio`` of each payload reaches the
    storage system (CPU cost is assumed hidden in the dump pipeline).
    """
    if compression_ratio < 1.0:
        raise ValueError("compression_ratio must be >= 1")
    params = _with_fabric(params, fabric, placement, redundancy, resilience)
    sim = Simulator()
    pfs = SimPFS(sim, params)
    start = sim.now
    if faults is not None:
        faults.inject(sim, pfs)
    obs = sim.obs
    root = (
        obs.tracer.start("checkpoint.run", at=start, scheme="plfs", fs=params.name)
        if obs is not None
        else None
    )
    finish = [start]

    def rank_proc(rank: int, writes):
        rsp = (
            obs.tracer.start("checkpoint.rank", parent=root, at=sim.now, rank=rank)
            if obs is not None
            else None
        )
        data_path = f"{path}.plfs/hostdir.{rank % 32}/dropping.data.{rank}"
        index_path = f"{path}.plfs/hostdir.{rank % 32}/dropping.index.{rank}"
        yield from pfs.op_create(rank, data_path)
        yield from pfs.op_create(rank, index_path)
        buf = 0
        log_off = 0
        idx_bytes = 0
        for _offset, nbytes in writes:
            buf += max(1, int(nbytes / compression_ratio))
            idx_bytes += index_record_bytes
            if buf >= params.write_buffer_bytes:
                yield from pfs.op_write(rank, data_path, log_off, buf, parent_span=rsp)
                log_off += buf
                buf = 0
        if buf:
            yield from pfs.op_write(rank, data_path, log_off, buf, parent_span=rsp)
        if idx_bytes:
            yield from pfs.op_write(rank, index_path, 0, idx_bytes, parent_span=rsp)
        if rsp is not None:
            rsp.finish(at=sim.now)
        finish.append(sim.now)

    for rank, writes in enumerate(pattern):
        sim.spawn(rank_proc(rank, list(writes)))
    sim.run()
    end = max(finish)
    if root is not None:
        root.finish(at=end)
    return CheckpointResult(
        scheme="plfs",
        fs_name=params.name,
        n_ranks=len(pattern),
        total_bytes=_total_bytes(pattern),
        makespan_s=end - start,
        lock_migrations=pfs.total_lock_migrations(),
        disk_seeks=pfs.total_seeks(),
    )


def speedup(
    params: PFSParams,
    pattern: Pattern,
    fabric: Optional[FabricParams] = None,
) -> tuple[CheckpointResult, CheckpointResult, float]:
    """(direct result, plfs result, PLFS bandwidth speedup)."""
    direct = run_direct_n1(params, pattern, fabric=fabric)
    plfs = run_plfs(params, pattern, fabric=fabric)
    return direct, plfs, plfs.bandwidth_Bps / direct.bandwidth_Bps


def run_readback(
    params: PFSParams,
    pattern: Pattern,
    via_plfs: bool,
    readers: int = 4,
    path: str = "/ckpt",
    fabric: Optional[FabricParams] = None,
    placement: object | None = None,
    redundancy: "str | RedundancySpec | None" = None,
    resilience: Optional[ResilienceParams] = None,
    faults: Optional[FaultSchedule] = None,
) -> CheckpointResult:
    """Read the checkpoint back N-to-1 (restart / analysis, PDSW'09
    "...And eat it too: high read performance in write-optimized HPC I/O").

    The file is written first (direct or PLFS-decomposed), then ``readers``
    clients each stream a contiguous partition of the logical bytes.

    * direct: the logical file is physically contiguous — big sequential
      server reads;
    * PLFS: each logical range maps to slices of per-rank logs.  A
      *strided* write pattern makes each reader's logical partition touch
      every log in small pieces; index-driven aggregation (modeled with
      the client read buffer) coalesces per-log runs, so reads stay
      within a small factor of direct — the PDSW'09 result.
    """
    total = _total_bytes(pattern)
    params = _with_fabric(params, fabric, placement, redundancy, resilience)
    sim = Simulator()
    pfs = SimPFS(sim, params)
    n_writers = len(pattern)
    if via_plfs:
        # materialize the logs (cheaply: one create+write per rank)
        def make_log(rank: int, nbytes: int):
            p = f"{path}.plfs/dropping.data.{rank}"
            yield from pfs.op_create(rank, p)
            yield from pfs.op_write(rank, p, 0, nbytes)
        for rank, writes in enumerate(pattern):
            sim.spawn(make_log(rank, sum(n for _, n in writes)))
    else:
        def make_flat():
            yield from pfs.op_create(0, path)
            pos = 0
            while pos < total:
                take = min(params.write_buffer_bytes, total - pos)
                yield from pfs.op_write(0, path, pos, take)
                pos += take
        sim.spawn(make_flat())
    sim.run()
    start = sim.now
    if faults is not None:
        faults.inject(sim, pfs)
    part = total // readers
    finish = [start]

    def direct_reader(r: int):
        pos = r * part
        end = total if r == readers - 1 else pos + part
        while pos < end:
            take = min(params.write_buffer_bytes, end - pos)
            yield from pfs.op_read(100 + r, path, pos, take)
            pos += take
        finish.append(sim.now)

    def plfs_reader(r: int):
        # the reader's logical partition maps to ~1/readers of every log;
        # the index lets it issue one coalesced run per log per buffer
        share = part // n_writers
        for rank in range(n_writers):
            p = f"{path}.plfs/dropping.data.{rank}"
            pos = r * share
            end = pos + share
            while pos < end:
                take = min(params.write_buffer_bytes, end - pos)
                yield from pfs.op_read(100 + r, p, pos, take)
                pos += take
        finish.append(sim.now)

    for r in range(readers):
        sim.spawn(plfs_reader(r) if via_plfs else direct_reader(r))
    sim.run()
    return CheckpointResult(
        scheme="plfs-read" if via_plfs else "direct-read",
        fs_name=params.name,
        n_ranks=readers,
        total_bytes=total,
        makespan_s=max(finish) - start,
        lock_migrations=pfs.total_lock_migrations(),
        disk_seeks=pfs.total_seeks(),
    )
