"""Integration tests for the simulated parallel file system."""

import pytest

from repro.pfs import GPFS_LIKE, LUSTRE_LIKE, PANFS_LIKE, PFSParams, SimPFS
from repro.pfs.security import CAPABILITY_SECURITY
from repro.sim import Simulator


def make_pfs(**kw):
    sim = Simulator()
    pfs = SimPFS(sim, PFSParams(**kw))
    return sim, pfs


def run_ranks(sim, fns):
    procs = [sim.spawn(fn) for fn in fns]
    sim.run()
    return sim.now


def test_create_then_stat():
    sim, pfs = make_pfs()

    def job():
        yield from pfs.op_create(0, "/f")

    run_ranks(sim, [job()])
    assert pfs.exists("/f")
    assert pfs.lookup("/f").size == 0


def test_write_updates_size_and_counters():
    sim, pfs = make_pfs(n_servers=4)

    def job():
        yield from pfs.op_create(0, "/f")
        yield from pfs.op_write(0, "/f", 0, 1 << 20)

    run_ranks(sim, [job()])
    assert pfs.lookup("/f").size == 1 << 20
    assert pfs.counters["bytes_written"] == 1 << 20
    per_server = [s["bytes_written"] for s in pfs.server_stats()]
    assert sum(per_server) == 1 << 20
    assert all(b > 0 for b in per_server)  # striped over all 4


def test_read_after_write_bounded_by_size():
    sim, pfs = make_pfs(n_servers=2)
    got = {}

    def job():
        yield from pfs.op_create(0, "/f")
        yield from pfs.op_write(0, "/f", 0, 1000)
        got["t"] = yield from pfs.op_read(0, "/f", 500, 10_000)

    run_ranks(sim, [job()])
    assert pfs.counters["bytes_read"] == 500  # clamped to EOF


def test_read_missing_file_raises():
    sim, pfs = make_pfs()

    def job():
        yield from pfs.op_read(0, "/nope", 0, 10)

    sim.spawn(job())
    with pytest.raises(FileNotFoundError):
        sim.run()


def test_sequential_large_writes_near_streaming_bandwidth():
    """One writer, big sequential writes: ~min(NIC, aggregate disk) speed."""
    sim, pfs = make_pfs(n_servers=4)
    total = 64 << 20

    def job():
        yield from pfs.op_create(0, "/big")
        chunk = 4 << 20
        for i in range(total // chunk):
            yield from pfs.op_write(0, "/big", i * chunk, chunk)

    t = run_ranks(sim, [job()])
    bw = total / t
    # bounded by client NIC (~112 MB/s); should achieve most of it
    assert bw > 0.5 * pfs.params.client_nic_Bps
    assert bw <= pfs.params.client_nic_Bps * 1.01


def test_n1_strided_small_writes_slower_than_nn():
    """The headline mechanism: N-1 unaligned strided << N-N sequential."""
    n_ranks, record, steps = 8, 47 * 1024, 8

    def n1_rank(pfs, rank):
        yield from pfs.op_open(rank, "/shared")
        for s in range(steps):
            offset = (s * n_ranks + rank) * record
            yield from pfs.op_write(rank, "/shared", offset, record)

    def nn_rank(pfs, rank):
        path = f"/log.{rank}"
        yield from pfs.op_create(rank, path)
        for s in range(steps):
            yield from pfs.op_write(rank, path, s * record, record)

    sim1 = Simulator()
    pfs1 = SimPFS(sim1, GPFS_LIKE.with_servers(4))
    setup = pfs1.op_create(0, "/shared")
    sim1.spawn(setup)
    sim1.run()
    for r in range(n_ranks):
        sim1.spawn(n1_rank(pfs1, r))
    t_n1 = sim1.run()

    sim2 = Simulator()
    pfs2 = SimPFS(sim2, GPFS_LIKE.with_servers(4))
    for r in range(n_ranks):
        sim2.spawn(nn_rank(pfs2, r))
    t_nn = sim2.run()

    assert t_n1 > 2.0 * t_nn
    assert pfs1.total_lock_migrations() > 0
    assert pfs2.total_lock_migrations() == 0


def test_more_servers_scale_parallel_bandwidth():
    def rank_job(pfs, rank, nbytes):
        path = f"/f.{rank}"
        yield from pfs.op_create(rank, path)
        chunk = 1 << 20
        for i in range(nbytes // chunk):
            yield from pfs.op_write(rank, path, i * chunk, chunk)

    times = {}
    for n_servers in (1, 8):
        sim = Simulator()
        pfs = SimPFS(sim, PFSParams(n_servers=n_servers))
        for r in range(8):
            sim.spawn(rank_job(pfs, r, 8 << 20))
        times[n_servers] = sim.run()
    assert times[8] < times[1] / 2


def test_mds_serializes_creates():
    sim, pfs = make_pfs()
    n = 50

    def creator(i):
        yield from pfs.op_create(i, f"/d/f.{i}")

    for i in range(n):
        sim.spawn(creator(i))
    t = sim.run()
    assert t == pytest.approx(n * pfs.params.mds_op_s, rel=0.01)
    assert all(pfs.exists(f"/d/f.{i}") for i in range(n))


def test_security_adds_small_overhead():
    def workload(pfs):
        def job():
            yield from pfs.op_create(0, "/f")
            for i in range(32):
                yield from pfs.op_write(0, "/f", i << 20, 1 << 20)
        return job

    sim1 = Simulator()
    pfs1 = SimPFS(sim1, PFSParams(n_servers=4))
    sim1.spawn(workload(pfs1)())
    t_plain = sim1.run()

    sim2 = Simulator()
    pfs2 = SimPFS(sim2, PFSParams(n_servers=4), security=CAPABILITY_SECURITY)
    sim2.spawn(workload(pfs2)())
    t_sec = sim2.run()

    overhead = (t_sec - t_plain) / t_plain
    assert 0.0 <= overhead < 0.07  # report: at most 6-7%


def test_personalities_distinct():
    assert LUSTRE_LIKE.stripe_unit != PANFS_LIKE.stripe_unit
    assert GPFS_LIKE.lock_granularity > PANFS_LIKE.lock_granularity
    assert {p.name for p in (LUSTRE_LIKE, PANFS_LIKE, GPFS_LIKE)} == {
        "lustre-like", "panfs-like", "gpfs-like",
    }


def test_rewrite_same_region_reuses_allocation():
    """Overwriting the same logical region hits the same disk blocks."""
    sim, pfs = make_pfs(n_servers=2)

    def job():
        yield from pfs.op_create(0, "/f")
        yield from pfs.op_write(0, "/f", 0, 1 << 20)
        yield from pfs.op_write(0, "/f", 0, 1 << 20)

    run_ranks(sim, [job()])
    server = pfs.servers[0]
    # allocation map has one entry per chunk, not two
    chunks = (1 << 20) // pfs.params.stripe_unit // pfs.params.n_servers
    assert len(server._alloc) == chunks
