"""Tests for workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.devices import Disk, device_model
from repro.workloads import (
    APP_CATALOG,
    S3DWeakScaling,
    app_pattern,
    iozone_bandwidth_sweep,
    iozone_random_iops,
    n1_segmented,
    n1_strided,
    pattern_bytes,
    with_jitter,
)
from repro.workloads.s3d import predict_checkpoint_series, WeakScalingPoint


def _all_offsets(pattern):
    return [(off, n) for writes in pattern for off, n in writes]


def test_n1_strided_interleaves():
    p = n1_strided(4, 10, 3)
    assert p[0][0] == (0, 10)
    assert p[1][0] == (10, 10)
    assert p[0][1] == (40, 10)  # next step jumps by n_ranks * record


def test_n1_segmented_contiguous_regions():
    p = n1_segmented(4, 10, 3)
    assert p[0] == [(0, 10), (10, 10), (20, 10)]
    assert p[1][0] == (30, 10)


def test_patterns_disjoint_and_cover():
    """Strided and segmented patterns tile the file with no overlap."""
    for maker in (n1_strided, n1_segmented):
        p = maker(5, 7, 4)
        spans = sorted(_all_offsets(p))
        pos = 0
        for off, n in spans:
            assert off == pos
            pos += n
        assert pos == 5 * 7 * 4
        assert pattern_bytes(p) == pos


def test_invalid_pattern_args():
    with pytest.raises(ValueError):
        n1_strided(0, 10, 1)
    with pytest.raises(ValueError):
        n1_segmented(1, 0, 1)
    with pytest.raises(ValueError):
        n1_segmented(1, 1, 0)


def test_with_jitter_keeps_offsets_bounds_sizes():
    rng = np.random.default_rng(0)
    base = n1_strided(4, 100, 5)
    jit = with_jitter(base, rng, size_jitter=0.5)
    for bw, jw in zip(base, jit):
        for (boff, bn), (joff, jn) in zip(bw, jw):
            assert joff == boff
            assert 1 <= jn <= bn


@given(n=st.integers(1, 10), rec=st.integers(1, 1000), steps=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_pattern_byte_conservation(n, rec, steps):
    for maker in (n1_strided, n1_segmented):
        assert pattern_bytes(maker(n, rec, steps)) == n * rec * steps


# ----------------------------------------------------------------- apps
def test_app_catalog_profiles():
    assert set(APP_CATALOG) == {
        "flash", "chombo", "lanl-app1", "qcd", "s3d", "pop", "gtc",
    }
    assert APP_CATALOG["s3d"].kind == "segmented"
    assert APP_CATALOG["flash"].kind == "strided"


def test_app_pattern_deterministic_with_seed():
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
    chombo = APP_CATALOG["chombo"]
    assert app_pattern(chombo, 4, rng1) == app_pattern(chombo, 4, rng2)


def test_flash_records_smaller_than_chombo():
    f = app_pattern(APP_CATALOG["flash"], 2)
    c = app_pattern(APP_CATALOG["chombo"], 2)
    f_mean = np.mean([n for _, n in _all_offsets(f)])
    c_mean = np.mean([n for _, n in _all_offsets(c)])
    assert f_mean < c_mean


def test_app_pattern_bad_kind():
    from repro.workloads.apps import AppProfile

    bad = AppProfile("x", "weird", 10, 1)
    with pytest.raises(ValueError):
        app_pattern(bad, 2)


# ----------------------------------------------------------------- s3d
def test_s3d_weak_scaling_pattern_scales_with_ranks():
    cfg = S3DWeakScaling(per_rank_bytes=1 << 20, records_per_rank=4)
    p8 = cfg.pattern(8)
    p16 = cfg.pattern(16)
    assert pattern_bytes(p16) == 2 * pattern_bytes(p8)
    assert len(p8[0]) == 4


def test_predict_checkpoint_series_linear_model():
    measured = [
        WeakScalingPoint(10, 1.0, 0.0),
        WeakScalingPoint(20, 2.0, 0.0),
        WeakScalingPoint(40, 4.0, 0.0),
    ]
    pred = predict_checkpoint_series(measured, run_hours=12.0, checkpoint_interval_s=3600.0)
    assert pred[0]["checkpoints"] == 12
    assert pred[-1]["per_checkpoint_s"] == pytest.approx(4.0, abs=1e-9)
    assert pred[-1]["fraction_of_run"] == pytest.approx(12 * 4.0 / (12 * 3600.0))
    # fraction grows with rank count (the Fig 2b trend)
    fracs = [p["fraction_of_run"] for p in pred]
    assert fracs == sorted(fracs)


def test_predict_requires_two_points():
    with pytest.raises(ValueError):
        predict_checkpoint_series([WeakScalingPoint(1, 1.0, 0.0)])


# ----------------------------------------------------------------- iozone
def test_iozone_disk_read_faster_seq_than_random():
    d = Disk()
    seq_r, seq_w = iozone_bandwidth_sweep(d, total_bytes=16 << 20)
    assert seq_r > 50.0  # MB/s streaming
    r_kiops, w_kiops = iozone_random_iops(Disk(), n_ops=300)
    assert r_kiops < 0.5  # ~100 IOPS = 0.1 kIOPS


def test_iozone_flash_vs_disk_gap():
    """Report Fig 11: flash random reads 'phenomenally higher' than disk."""
    flash = device_model("intel-x25m")
    r_kiops, _ = iozone_random_iops(flash, n_ops=500)
    d_kiops, _ = iozone_random_iops(Disk(), n_ops=300)
    assert r_kiops > 50 * d_kiops


def test_iozone_flash_write_slower_than_read():
    flash = device_model("intel-x25m")
    r, w = iozone_random_iops(flash, n_ops=500)
    assert w < r  # Fig 11 finding (3)
