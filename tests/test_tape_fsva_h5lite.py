"""Tests for the tape archive model (T2), FSVA (Fig 6), and H5-lite."""

import numpy as np
import pytest

from repro.fsva import relative_overhead, run_workload
from repro.fsva.model import STREAM_LIKE, UNTAR_LIKE
from repro.h5lite import H5PerfConfig, OPT_STACK, cumulative_optimizations, run_h5_write
from repro.pfs import GPFS_LIKE
from repro.tape import NERSC_GENERATIONS, run_verification_campaign


# ------------------------------------------------------------- tape
def test_campaign_reads_all_tapes():
    rep = run_verification_campaign()
    assert rep.tapes_read == sum(g.count for g in NERSC_GENERATIONS)
    assert rep.tapes_read == 23820


def test_enterprise_tape_extremely_reliable():
    """Report: 99.945% of tapes fully readable; handful of files lost."""
    rep = run_verification_campaign(rng=np.random.default_rng(1))
    assert rep.full_readability > 0.998
    assert 0 < rep.tapes_with_loss < 60
    assert rep.files_lost < 100
    assert rep.bytes_lost < 200e9


def test_worst_tapes_need_multiple_passes():
    rep = run_verification_campaign(rng=np.random.default_rng(2))
    assert 3 <= rep.max_read_passes <= 5


def test_appliance_flags_more_than_final_losses():
    """One-pass appliance reads flag suspects; retries recover most."""
    rep = run_verification_campaign(rng=np.random.default_rng(3))
    assert rep.appliance_flagged > rep.tapes_with_loss


def test_older_generation_worse():
    old = NERSC_GENERATIONS[2]
    new = NERSC_GENERATIONS[0]
    assert old.bad_probability() > new.bad_probability()


# ------------------------------------------------------------- fsva
def test_native_fastest():
    for mix in (UNTAR_LIKE, STREAM_LIKE):
        native = run_workload(mix, "native")
        naive = run_workload(mix, "fsva-naive")
        shared = run_workload(mix, "fsva-shared")
        assert native < shared < naive


def test_sharedmem_overhead_small():
    """FSVA claim: shared-memory transport makes the appliance viable."""
    for mix in (UNTAR_LIKE, STREAM_LIKE):
        assert relative_overhead(mix, "fsva-shared") < 0.15


def test_naive_overhead_substantial_on_metadata():
    assert relative_overhead(UNTAR_LIKE, "fsva-naive") > 0.4


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run_workload(UNTAR_LIKE, "bare-metal")


# ------------------------------------------------------------- h5lite perf
def test_optimizations_cumulative_improvement():
    cfg = H5PerfConfig(n_ranks=16, n_datasets=3)
    series = cumulative_optimizations(cfg, GPFS_LIKE.with_servers(4))
    assert [s["step"] for s in series] == list(OPT_STACK)
    times = [s["makespan_s"] for s in series]
    # each step helps (or at worst is neutral); total gain is large
    assert times[-1] < times[0] / 4.0
    for a, b in zip(times, times[1:]):
        assert b <= a * 1.1


def test_unknown_optimization_rejected():
    with pytest.raises(ValueError):
        run_h5_write(H5PerfConfig(), GPFS_LIKE, {"magic"})


def test_meta_aggregation_reduces_lock_traffic():
    cfg = H5PerfConfig(n_ranks=16, n_datasets=3)
    base = run_h5_write(cfg, GPFS_LIKE.with_servers(4), set())
    meta = run_h5_write(cfg, GPFS_LIKE.with_servers(4), {"meta"})
    assert meta["lock_migrations"] < base["lock_migrations"]
