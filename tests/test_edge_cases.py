"""Final edge-case sweep across subsystems."""

import pytest

from repro.mpi import run_spmd
from repro.net import ONE_GE, simulate_incast
from repro.pfs import PFSParams, SimPFS
from repro.plfs import Plfs, PlfsMPIIO
from repro.pnfs import NFSCluster
from repro.pnfs.server import NFSParams
from repro.sim import Simulator


# ------------------------------------------------------------- mpiio extras
def test_mpiio_independent_read_at(tmp_path):
    fs = Plfs(tmp_path / "mnt")
    fs.write_file("/f", b"abcdefgh")

    def app(comm):
        fh = yield from PlfsMPIIO.open(comm, fs, "/f", "r")
        data = yield from fh.read_at(comm.rank * 2, 2)
        yield from fh.close()
        return data

    assert run_spmd(4, app) == [b"ab", b"cd", b"ef", b"gh"]


def test_mpiio_double_close_is_safe(tmp_path):
    fs = Plfs(tmp_path / "mnt")

    def app(comm):
        fh = yield from PlfsMPIIO.open(comm, fs, "/f", "w")
        yield from fh.write_at(0, b"x")
        yield from fh.close()
        yield from fh.close()

    run_spmd(2, app)
    assert fs.read_file("/f") == b"x"


# ------------------------------------------------------------- plfs vfs extras
def test_vfs_readdir_root(tmp_path):
    fs = Plfs(tmp_path / "mnt")
    fs.write_file("/a", b"1")
    fs.mkdir("/dir")
    names = fs.readdir("/")
    assert "a" in names and "dir" in names


def test_vfs_mkdir_over_file_rejected(tmp_path):
    fs = Plfs(tmp_path / "mnt")
    fs.write_file("/a", b"1")
    with pytest.raises(FileExistsError):
        fs.mkdir("/a")


def test_vfs_rename_missing_source(tmp_path):
    fs = Plfs(tmp_path / "mnt")
    with pytest.raises(FileNotFoundError):
        fs.rename("/ghost", "/new")


def test_vfs_empty_path_rejected(tmp_path):
    fs = Plfs(tmp_path / "mnt")
    with pytest.raises(ValueError):
        fs.stat("//")


# ------------------------------------------------------------- pnfs extras
def test_nfs_pipeline_overlaps_nic_and_backend():
    """Chunked NFS writes pipeline NIC and backend stages: total time is
    below the serial sum for multi-chunk transfers.  The NIC stage's cost
    is a measured solo one-chunk flow through the funnel port, so the
    bound includes the window ramp every chunk pays."""
    params = NFSParams()
    chunk, n_chunks = 1 << 20, 16
    solo = Simulator()
    probe = NFSCluster(solo, params)
    solo.spawn(probe.topology.to_port(probe.nfs_port, chunk))
    nic_s = solo.run()
    sim = Simulator()
    cluster = NFSCluster(sim, params)
    sim.spawn(cluster.nfs_write(0, n_chunks * chunk, chunk=chunk))
    t = sim.run()
    serial = n_chunks * (params.rpc_s + nic_s + chunk / params.backend_Bps)
    assert t < serial


def test_pnfs_block_layout_always_commits():
    from repro.pnfs import LayoutKind

    sim = Simulator()
    cluster = NFSCluster(sim, NFSParams())
    sim.spawn(cluster.pnfs_write(0, 4 << 20, kind=LayoutKind.BLOCK))
    sim.run()
    assert cluster.layouts.commits == 1


# ------------------------------------------------------------- misc models
def test_incast_efficiency_bounded():
    res = simulate_incast(ONE_GE, 8, n_blocks=3)
    assert 0.0 < res.goodput_Bps / ONE_GE.link_Bps <= 1.0


def test_simpfs_zero_byte_write_and_read():
    sim = Simulator()
    pfs = SimPFS(sim, PFSParams(n_servers=2))
    out = {}

    def job():
        yield from pfs.op_create(0, "/f")
        out["w"] = yield from pfs.op_write(0, "/f", 0, 0)
        out["r"] = yield from pfs.op_read(0, "/f", 0, 0)

    sim.spawn(job())
    sim.run()
    assert out["w"] == 0.0 and out["r"] == 0.0
    assert pfs.lookup("/f").size == 0
