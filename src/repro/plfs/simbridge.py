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
PLFS, a single create for the shared file).  Every runner takes a
:class:`repro.pfs.PFSParams` and a pattern; network fabric, placement and
redundancy are fields of the ``PFSParams`` (``params.with_fabric(...)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.sim import Simulator

#: bytes per *simulated* PLFS index record.  This does not match the real
#: record (repro.plfs.index.RECORD_SIZE: ``<qqqqd`` = 40 bytes); the value
#: is held by the Fig-8 ``==`` goldens until ROADMAP item 8(a) reconciles it.
INDEX_RECORD_BYTES = 32

#: parallel clients of a read-back (PDSW'09 read with four)
READERS = 4

#: the logical checkpoint file; PLFS keeps its droppings under ``PATH.plfs``
PATH = "/ckpt"

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


def _result(
    pfs: SimPFS, scheme: str, n_ranks: int, total: int, makespan_s: float
) -> CheckpointResult:
    return CheckpointResult(scheme, pfs.params.name, n_ranks, total, makespan_s,
                            pfs.total_lock_migrations(), pfs.total_seeks())


def _run_ranks(
    params: PFSParams,
    pattern: Pattern,
    scheme: str,
    body: Callable[[SimPFS, int, list, object], Iterator],
    setup: Optional[Callable[[SimPFS], Iterator]] = None,
) -> CheckpointResult:
    """Run ``setup`` untimed, then ``body(pfs, rank, writes, rank_span)``
    as one process per rank.

    The measured run is recorded as a ``checkpoint.run`` span with one
    ``checkpoint.rank`` child per rank.  Makespans are measured from the
    last rank's finish time, not the final ``sim.now``: uncancellable
    timers of a finite ``op_timeout_s`` may tick past the real completion.
    Under the default :data:`repro.faults.NO_RETRIES` there is no timer
    and the two coincide bit for bit.
    """
    sim = Simulator()
    pfs = SimPFS(sim, params)
    if setup is not None:
        sim.spawn(setup(pfs))
        sim.run()
    start = sim.now
    obs = sim.obs
    root = (
        obs.tracer.start("checkpoint.run", at=start, scheme=scheme, fs=params.name)
        if obs is not None
        else None
    )
    finish = [start]

    def rank_proc(rank: int, writes: list):
        rsp = (
            obs.tracer.start("checkpoint.rank", parent=root, at=sim.now, rank=rank)
            if obs is not None
            else None
        )
        yield from body(pfs, rank, writes, rsp)
        if rsp is not None:
            rsp.finish(at=sim.now)
        finish.append(sim.now)

    for rank, writes in enumerate(pattern):
        sim.spawn(rank_proc(rank, list(writes)))
    sim.run()
    end = max(finish)
    if root is not None:
        root.finish(at=end)
    return _result(pfs, scheme, len(pattern), _total_bytes(pattern), end - start)


def _direct_rank(pfs: SimPFS, rank: int, writes: list, span) -> Iterator:
    """Each record at its logical offset in the one shared file."""
    yield from pfs.op_open(rank, PATH)
    for offset, nbytes in writes:
        yield from pfs.op_write(rank, PATH, offset, nbytes, parent_span=span)


def _plfs_rank(pfs: SimPFS, rank: int, writes: list, span) -> Iterator:
    """The rank's records appended to its own data log, coalesced into
    ``write_buffer_bytes`` flushes; its index records flush at close."""
    hostdir = f"{PATH}.plfs/hostdir.{rank % 32}"
    data_path = f"{hostdir}/dropping.data.{rank}"
    index_path = f"{hostdir}/dropping.index.{rank}"
    yield from pfs.op_create(rank, data_path)
    yield from pfs.op_create(rank, index_path)
    flush_at = pfs.params.write_buffer_bytes
    buf = log_off = 0
    for _offset, nbytes in writes:
        buf += nbytes
        if buf >= flush_at:
            yield from pfs.op_write(rank, data_path, log_off, buf, parent_span=span)
            log_off += buf
            buf = 0
    if buf:
        yield from pfs.op_write(rank, data_path, log_off, buf, parent_span=span)
    if writes:
        idx_bytes = INDEX_RECORD_BYTES * len(writes)
        yield from pfs.op_write(rank, index_path, 0, idx_bytes, parent_span=span)


def run_direct_n1(params: PFSParams, pattern: Pattern) -> CheckpointResult:
    """All ranks write their records into one shared file at logical offsets."""
    return _run_ranks(
        params, pattern, "direct-n1", _direct_rank, setup=lambda pfs: pfs.op_create(0, PATH)
    )


def run_plfs(params: PFSParams, pattern: Pattern) -> CheckpointResult:
    """Same pattern through PLFS: per-rank sequential logs + index stream.

    Each rank touches only its own files, so the lock manager never
    migrates anything.
    """
    return _run_ranks(params, pattern, "plfs", _plfs_rank)


def speedup(
    params: PFSParams, pattern: Pattern
) -> tuple[CheckpointResult, CheckpointResult, float]:
    """(direct result, plfs result, PLFS bandwidth speedup)."""
    direct = run_direct_n1(params, pattern)
    plfs = run_plfs(params, pattern)
    return direct, plfs, plfs.bandwidth_Bps / direct.bandwidth_Bps


def run_readback(params: PFSParams, pattern: Pattern, via_plfs: bool) -> CheckpointResult:
    """Read the checkpoint back N-to-1 (restart / analysis, PDSW'09
    "...And eat it too: high read performance in write-optimized HPC I/O").

    The file is written first (direct or PLFS-decomposed), then
    :data:`READERS` clients each stream a contiguous partition of the
    logical bytes.

    * direct: the logical file is physically contiguous — big sequential
      server reads;
    * PLFS: each logical range maps to slices of per-rank logs.  A
      *strided* write pattern makes each reader's logical partition touch
      every log in small pieces; index-driven aggregation (modeled with
      the client read buffer) coalesces per-log runs, so reads stay
      within a small factor of direct — the PDSW'09 result.
    """
    total = _total_bytes(pattern)
    chunk = params.write_buffer_bytes
    sim = Simulator()
    pfs = SimPFS(sim, params)
    if via_plfs:
        logs = [
            (f"{PATH}.plfs/dropping.data.{rank}", sum(n for _, n in writes))
            for rank, writes in enumerate(pattern)
        ]
        # materialize the logs (cheaply: one create+write per rank)
        def make_log(rank: int, path: str, nbytes: int):
            yield from pfs.op_create(rank, path)
            yield from pfs.op_write(rank, path, 0, nbytes)

        for rank, (path, nbytes) in enumerate(logs):
            sim.spawn(make_log(rank, path, nbytes))
        # reader r's logical partition maps to the r-th 1/READERS of every
        # log; the index lets it issue one coalesced run per log per buffer
        extents = [
            [(path, r * size // READERS, (r + 1) * size // READERS) for path, size in logs]
            for r in range(READERS)
        ]
    else:
        def make_flat():
            yield from pfs.op_create(0, PATH)
            for pos in range(0, total, chunk):
                yield from pfs.op_write(0, PATH, pos, min(chunk, total - pos))

        sim.spawn(make_flat())
        part = total // READERS
        extents = [
            [(PATH, r * part, total if r == READERS - 1 else (r + 1) * part)]
            for r in range(READERS)
        ]
    sim.run()
    start = sim.now
    finish = [start]

    def reader(r: int):
        for path, pos, end in extents[r]:
            while pos < end:
                take = min(chunk, end - pos)
                yield from pfs.op_read(100 + r, path, pos, take)
                pos += take
        finish.append(sim.now)

    for r in range(READERS):
        sim.spawn(reader(r))
    sim.run()
    scheme = "plfs-read" if via_plfs else "direct-read"
    return _result(pfs, scheme, READERS, total, max(finish) - start)
