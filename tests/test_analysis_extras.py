"""Tests for PPM export, sim-bridge read-back,
and assorted smaller units (h5lite perf, iozone full sweep, dfs edges)."""

import numpy as np
import pytest

from repro.devices import device_model
from repro.dfs import ClusterSpec, GrepJob, HDFSBackend, run_grep
from repro.h5lite import H5PerfConfig, run_h5_write
from repro.pfs import GPFS_LIKE, LUSTRE_LIKE
from repro import obs as obs_mod
from repro.plfs.simbridge import run_readback
from repro.tracing import TraceLog, raster_wrapped
from repro.tracing.records import TraceEvent
from repro.tracing.ninjat import save_ppm
from repro.workloads import n1_strided, pattern_bytes, with_jitter
from repro.workloads.iozone import full_sweep


# ------------------------------------------------------------- ppm export
def _strided_log():
    log = TraceLog()
    t = 0.0
    for s in range(6):
        for r in range(4):
            log.add(TraceEvent(t, r, "write", (s * 4 + r) * 50, 50))
            t += 1.0
    return log


def test_save_ppm_roundtrip_header(tmp_path):
    img = raster_wrapped(_strided_log(), width=24, height=8)
    out = tmp_path / "ninjat.ppm"
    save_ppm(img, out)
    raw = out.read_bytes()
    assert raw.startswith(b"P6\n24 8\n255\n")
    body = raw.split(b"255\n", 1)[1]
    assert len(body) == 24 * 8 * 3


def test_save_ppm_rejects_bad_shape(tmp_path):
    with pytest.raises(ValueError):
        save_ppm(np.zeros(10), tmp_path / "x.ppm")


def test_save_ppm_distinct_rank_colors(tmp_path):
    img = raster_wrapped(_strided_log(), width=24, height=1)
    out = tmp_path / "row.ppm"
    save_ppm(img, out)
    body = out.read_bytes().split(b"255\n", 1)[1]
    pixels = {tuple(body[i:i + 3]) for i in range(0, len(body), 3)}
    assert len(pixels) >= 4  # four ranks, four colors


# ------------------------------------------------------------- read-back
def test_readback_conserves_bytes():
    """Every written byte is read back, from even logs and from logs the
    jitter left uneven (the readers split each log, not the mean log)."""
    even = n1_strided(4, 32 * 1024, 4)
    uneven = with_jitter(even, np.random.default_rng(7), 0.3)
    for pattern in (even, uneven):
        for via_plfs in (False, True):
            with obs_mod.use(obs_mod.Observability(name="readback")) as o:
                res = run_readback(LUSTRE_LIKE.with_servers(4), pattern, via_plfs)
            assert res.total_bytes == pattern_bytes(pattern)
            assert o.metrics.snapshot()["counters"]["pfs.bytes_read"] == res.total_bytes
            assert res.makespan_s > 0
    assert pattern_bytes(uneven) != pattern_bytes(even)


# ------------------------------------------------------------- small units
def test_h5lite_perf_single_opt_runs():
    out = run_h5_write(H5PerfConfig(n_ranks=8, n_datasets=2), GPFS_LIKE.with_servers(2), {"align"})
    assert out["opts"] == ["align"]
    assert out["bandwidth_MBps"] > 0


def test_iozone_full_sweep_fields():
    res = full_sweep(device_model("intel-x25m"), "x25m", seq_bytes=8 << 20, iops_ops=200)
    assert res.device == "x25m"
    assert res.seq_read_MBps > res.seq_write_MBps
    assert res.rand_read_kiops > res.rand_write_kiops


def test_dfs_single_node_cluster():
    spec = ClusterSpec(n_nodes=1, chunk_bytes=8 << 20)
    res = run_grep(GrepJob(n_chunks=4, cpu_s_per_chunk=0.01), HDFSBackend(spec, replication=1))
    assert res.locality == 1.0
    assert res.makespan_s > 0
