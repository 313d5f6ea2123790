"""Final edge-case sweep across subsystems."""

import io

import numpy as np
import pytest

from repro.h5lite import H5LiteReader, H5LiteWriter
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


# ------------------------------------------------------------- h5lite extras
def test_h5lite_empty_and_scalar_arrays():
    buf = io.BytesIO()
    with H5LiteWriter(buf) as w:
        w.create_dataset("empty", np.array([], dtype=np.float32))
        w.create_dataset("scalar", np.array(7.5))
        w.create_dataset("bools", np.array([True, False, True]))
    buf.seek(0)
    with H5LiteReader(buf) as r:
        assert r.read("empty").size == 0
        assert r.read("scalar") == pytest.approx(7.5)
        assert r.read("bools").tolist() == [True, False, True]


def test_h5lite_nested_attrs_roundtrip():
    buf = io.BytesIO()
    attrs = {"run": {"id": 12, "params": [1, 2, 3]}, "label": "c2h4"}
    with H5LiteWriter(buf) as w:
        w.create_dataset("x", np.zeros(2), attrs=attrs)
    buf.seek(0)
    with H5LiteReader(buf) as r:
        assert r.attrs("x") == attrs


def test_h5lite_align_validation():
    buf = io.BytesIO()
    with H5LiteWriter(buf) as w:
        with pytest.raises(ValueError):
            w.create_dataset("x", np.zeros(2), align=0)


# ------------------------------------------------------------- pnfs extras
def test_nfs_pipeline_overlaps_nic_and_backend():
    """Chunked NFS writes pipeline NIC and backend stages: total time is
    below the serial sum for multi-chunk transfers."""
    params = NFSParams()
    nbytes = 16 << 20
    sim = Simulator()
    cluster = NFSCluster(sim, params)
    sim.spawn(cluster.nfs_write(0, nbytes, chunk=1 << 20))
    t = sim.run()
    serial = nbytes / params.server_nic_Bps + nbytes / params.backend_Bps \
        + 16 * params.rpc_s
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
    assert 0.0 < res.efficiency(ONE_GE) <= 1.0


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


def test_sim_trace_hook_fires():
    events = []
    sim = Simulator(trace=lambda t, label: events.append((t, label)))

    def job():
        yield from ()
        return None

    from repro.sim import Timeout

    def worker():
        yield Timeout(1.0)

    sim.spawn(worker())
    sim.run()
    assert events  # dispatcher reported at least the process steps
    assert all(isinstance(t, float) for t, _ in events)
