"""Tests for tracing, cview, fsstats, and ninjat."""

import numpy as np
import pytest

from repro.plfs import Plfs
from repro.tracing import (
    FS_PROFILES,
    TraceEvent,
    TraceLog,
    TracingWriteHandle,
    classify_pattern,
    cview_bins,
    raster_offsets,
    raster_wrapped,
    size_cdf,
    survey_summary,
    synth_app_trace,
    synth_file_sizes,
)
from repro.tracing.fsstats import scan_directory
from repro.workloads import n1_segmented, n1_strided


def make_log(pattern, record=100):
    """Build a trace from a pattern: time = global write order."""
    log = TraceLog()
    t = 0.0
    steps = len(pattern[0])
    for s in range(steps):
        for r, writes in enumerate(pattern):
            off, n = writes[s]
            log.add(TraceEvent(t, r, "write", off, n))
            t += 1.0
    return log


# ------------------------------------------------------------- records
def test_event_validation():
    with pytest.raises(ValueError):
        TraceEvent(0.0, 0, "frobnicate")


def test_log_filter_and_totals():
    log = TraceLog()
    log.add(TraceEvent(0.0, 0, "write", 0, 100))
    log.add(TraceEvent(1.0, 1, "read", 0, 50))
    log.add(TraceEvent(2.0, 0, "write", 100, 100))
    assert len(log.filter(op="write")) == 2
    assert len(log.filter(rank=1)) == 1
    assert log.total_bytes("write") == 200


def test_columns_shapes():
    log = make_log(n1_strided(3, 10, 2))
    cols = log.columns()
    assert len(cols["t"]) == 6
    assert cols["offset"].dtype == np.int64


# ------------------------------------------------------------- tracer
def test_tracing_write_handle_records_real_ops(tmp_path):
    fs = Plfs(tmp_path / "mnt")
    fs.create("/f")
    log = TraceLog()
    h = TracingWriteHandle(fs.open_write("/f", create=False), log, rank=0, path="/f")
    h.write(b"abc", 0)
    h.write(b"def", 3)
    h.sync()
    h.close()
    assert fs.read_file("/f") == b"abcdef"
    ops = [e.op for e in log]
    assert ops == ["open", "write", "write", "sync", "close"]
    assert log.total_bytes("write") == 6


def test_synth_app_trace_structure():
    rng = np.random.default_rng(0)
    log = synth_app_trace(n_ranks=4, n_phases=3, rng=rng)
    assert len(log.filter(op="open")) == 4
    assert len(log.filter(op="close")) == 4
    writes = log.filter(op="write")
    reads = log.filter(op="read")
    assert len(writes) + len(reads) == 4 * 3 * 16
    with pytest.raises(ValueError):
        synth_app_trace(0, 1, rng)


# ------------------------------------------------------------- cview
def test_cview_bins_shapes_and_totals():
    rng = np.random.default_rng(1)
    log = synth_app_trace(n_ranks=4, n_phases=3, rng=rng)
    out = cview_bins(log, n_bins=16)
    assert out["calls"].shape == (4, 16)
    assert out["bytes"].shape == (4, 16)
    total_ops = len(log.filter(op="read")) + len(log.filter(op="write"))
    assert out["calls"].sum() == total_ops
    assert out["bytes"].sum() == log.total_bytes("read") + log.total_bytes("write")


def test_cview_bursts_are_banded():
    """I/O bursts concentrate in few time bins (Fig 1's ridges)."""
    rng = np.random.default_rng(2)
    log = synth_app_trace(n_ranks=8, n_phases=4, rng=rng)
    out = cview_bins(log, n_bins=64)
    col_totals = out["calls"].sum(axis=0)
    assert (col_totals > 0).mean() < 0.5  # most bins idle


def test_cview_empty_log():
    out = cview_bins(TraceLog(), n_bins=8)
    assert out["calls"].shape == (0, 8)
    with pytest.raises(ValueError):
        cview_bins(TraceLog(), n_bins=0)


# ------------------------------------------------------------- fsstats
def test_profiles_count_eleven():
    assert len(FS_PROFILES) == 11


def test_synth_sizes_and_cdf_monotone():
    rng = np.random.default_rng(3)
    sizes = synth_file_sizes(FS_PROFILES["hpc-scratch1"], 5000, rng)
    _, f = size_cdf(sizes)
    assert (np.diff(f) >= 0).all()
    assert f[-1] == pytest.approx(1.0)


def test_survey_summary_fields():
    rng = np.random.default_rng(4)
    sizes = synth_file_sizes(FS_PROFILES["home1"], 2000, rng)
    s = survey_summary(sizes)
    assert s["files"] == 2000
    assert s["median_bytes"] <= s["p90_bytes"] <= s["p99_bytes"]
    assert 0.0 <= s["frac_under_4k"] <= 1.0


def test_scratch_files_larger_than_home():
    rng = np.random.default_rng(5)
    scratch = synth_file_sizes(FS_PROFILES["hpc-scratch1"], 3000, rng)
    home = synth_file_sizes(FS_PROFILES["home1"], 3000, rng)
    assert np.median(scratch) > 10 * np.median(home)


def test_scan_directory(tmp_path):
    (tmp_path / "a").write_bytes(b"x" * 100)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b").write_bytes(b"y" * 200)
    sizes = scan_directory(tmp_path)
    assert sorted(sizes.tolist()) == [100, 200]


def test_empty_cdf_raises():
    with pytest.raises(ValueError):
        size_cdf(np.array([]))


# ------------------------------------------------------------- ninjat
def test_raster_offsets_marks_all_ranks():
    log = make_log(n1_strided(4, 50, 6))
    img = raster_offsets(log, width=64, height=64)
    assert img.shape == (64, 64)
    assert set(np.unique(img)) >= {1, 2, 3, 4}


def test_raster_wrapped_interleave_visible():
    # grid sized so one cell ~= one record: interleave shows as frequent
    # rank changes between adjacent cells
    log = make_log(n1_strided(4, 50, 6))
    img = raster_wrapped(log, width=6, height=4).ravel()
    filled = img[img > 0]
    changes = np.mean(np.diff(filled) != 0)
    assert changes > 0.5


def test_raster_wrapped_segmented_blocks():
    log = make_log(n1_segmented(4, 50, 6))
    img = raster_wrapped(log, width=6, height=4).ravel()
    filled = img[img > 0]
    changes = np.mean(np.diff(filled) != 0)
    assert changes < 0.2  # big solid blocks per rank


def test_classify_strided():
    log = make_log(n1_strided(8, 47, 6))
    out = classify_pattern(log)
    assert out["label"] == "n1-strided"
    assert out["interleave"] > 0.5


def test_classify_segmented():
    log = make_log(n1_segmented(8, 47, 6))
    assert classify_pattern(log)["label"] == "n1-segmented"


def test_classify_sequential_single_writer():
    log = TraceLog()
    for i in range(10):
        log.add(TraceEvent(float(i), 0, "write", i * 100, 100))
    assert classify_pattern(log)["label"] == "sequential"


def test_ninjat_requires_writes():
    log = TraceLog()
    log.add(TraceEvent(0.0, 0, "read", 0, 10))
    with pytest.raises(ValueError):
        raster_offsets(log)
    with pytest.raises(ValueError):
        raster_wrapped(TraceLog(), 1, 0)
