"""Tests for the flash FTL model and device catalog."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.devices import DEVICE_CATALOG, FlashDevice, FlashParams, device_model


def small_device(overprovision=0.12, user_blocks=32, **kw):
    return FlashDevice(FlashParams(user_blocks=user_blocks, overprovision=overprovision, **kw))


def test_fresh_write_has_no_gc():
    dev = small_device()
    for lp in range(dev.params.user_pages // 2):
        dev.write(lp)
    assert dev.blocks_erased == 0
    assert dev.write_amplification() == 1.0


def test_read_costs_read_page_time():
    dev = small_device()
    dev.write(0)
    t0 = dev.time_s
    t = dev.read(0)
    assert t == dev.params.read_page_s
    assert dev.time_s == pytest.approx(t0 + t)


def test_overwrite_invalidates_old_page():
    dev = small_device()
    dev.write(5)
    first_phys = int(dev.mapping[5])
    dev.write(5)
    assert int(dev.mapping[5]) != first_phys
    assert dev.page_state[first_phys] == 2  # STALE
    dev.check_invariants()


def test_gc_triggers_after_device_filled():
    dev = small_device(user_blocks=16)
    rng = np.random.default_rng(3)
    # write 3x the device's logical span randomly
    for lp in rng.integers(0, dev.params.user_pages, size=3 * dev.params.user_pages):
        dev.write(int(lp))
    assert dev.blocks_erased > 0
    assert dev.write_amplification() > 1.0
    dev.check_invariants()


def test_sustained_random_write_cliff():
    """Steady-state random-write IOPS drops well below fresh (report: ~10x)."""
    dev = small_device(user_blocks=64, overprovision=0.08)
    rng = np.random.default_rng(11)
    res = dev.sustained_random_write(6 * dev.params.user_pages, rng)
    assert res.degradation_factor > 2.0
    assert res.window_iops[0] > res.steady_iops
    assert res.write_amplification > 1.5
    # Fig 14's mechanism, pinned exactly (the figure is not in the fast set)
    assert res.write_amplification == 2.5986735026041665
    assert dev.blocks_erased == 931
    assert dev.gc_page_moves == 39289
    assert dev.flash_pages_programmed == 63865


def test_streams_append_to_separate_blocks():
    dev = small_device()
    dev.write(0)
    dev.write(1, stream=1)
    dev.write(2)
    pp = dev.params.pages_per_block
    assert dev.mapping[0] // pp == dev.mapping[2] // pp != dev.mapping[1] // pp
    dev.check_invariants()


def test_more_overprovisioning_degrades_less():
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
    lean = small_device(user_blocks=64, overprovision=0.06)
    rich = small_device(user_blocks=64, overprovision=0.45)
    r_lean = lean.sustained_random_write(5 * lean.params.user_pages, rng1)
    r_rich = rich.sustained_random_write(5 * rich.params.user_pages, rng2)
    assert r_rich.steady_iops > r_lean.steady_iops
    assert r_rich.write_amplification < r_lean.write_amplification


def test_subpage_write_pays_rmw_penalty():
    dev = small_device()
    dev.write(9)
    t_full = dev.params.program_page_s
    t_sub = dev.write_subpage(9, 512)
    assert t_sub >= t_full + dev.params.read_page_s


def test_subpage_write_on_unmapped_page_no_read():
    dev = small_device()
    t = dev.write_subpage(3, 512)
    assert t == pytest.approx(dev.params.program_page_s)


def test_sequential_rates_match_params():
    dev = small_device()
    n = 100 << 20
    assert dev.sequential_read(n) == pytest.approx(n / dev.params.peak_read_Bps)
    assert dev.sequential_write(n) == pytest.approx(n / dev.params.peak_write_Bps)


def test_out_of_range_page_rejected():
    dev = small_device()
    with pytest.raises(IndexError):
        dev.read(dev.params.user_pages)
    with pytest.raises(IndexError):
        dev.write(-1)


def test_catalog_has_all_table1_devices():
    assert set(DEVICE_CATALOG) == {
        "intel-x25m", "ocz-colossus", "fusionio-iodrive-duo",
        "tms-ramsan20", "virident-tachion",
    }


def test_catalog_fresh_iops_match_table1():
    for key, spec in DEVICE_CATALOG.items():
        dev = device_model(key)
        assert 1.0 / dev.params.read_page_s == pytest.approx(spec.read_kiops_4k * 1e3, rel=1e-6)
        assert dev.fresh_write_iops() == pytest.approx(spec.write_kiops_4k * 1e3, rel=1e-6)
        assert dev.params.peak_read_Bps == spec.read_Bps


def test_catalog_pcie_faster_than_sata():
    assert (
        DEVICE_CATALOG["virident-tachion"].read_Bps
        > DEVICE_CATALOG["intel-x25m"].read_Bps
    )


@given(seed=st.integers(min_value=0, max_value=2**31), blocks=st.integers(8, 24))
@settings(max_examples=15, deadline=None)
def test_ftl_invariants_under_random_workload(seed, blocks):
    dev = small_device(user_blocks=blocks)
    rng = np.random.default_rng(seed)
    for lp in rng.integers(0, dev.params.user_pages, size=4 * dev.params.user_pages):
        dev.write(int(lp))
    dev.check_invariants()
    # every write must remain readable
    for lp in range(0, dev.params.user_pages, 7):
        if dev.mapping[lp] >= 0:
            assert dev.page_owner[dev.mapping[lp]] == lp
