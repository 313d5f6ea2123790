"""Tests for layout-aware collective I/O (X2) and GMC prefetching (X3)."""

import numpy as np
import pytest

from repro.collective import (
    CollectiveConfig,
    aligned_domains,
    even_domains,
    run_collective_write,
)
from repro.pfs import GPFS_LIKE
from repro.prefetch import (
    GMCPrefetcher,
    OrderOnePrefetcher,
    evaluate_prefetcher,
    looping_stream,
    multi_file_stream,
)


# ------------------------------------------------------------- collective
def test_even_domains_partition():
    d = even_domains(100, 3)
    assert d == [(0, 33), (33, 66), (66, 100)]
    assert sum(e - s for s, e in d) == 100


def test_even_domains_no_zero_width():
    """Regression: more aggregators than bytes used to emit (k, k) domains."""
    d = even_domains(3, 5)
    assert d == [(0, 3)]
    assert all(e > s for s, e in d)
    # one aggregator short of the byte count: per-agg share rounds to 0
    d = even_domains(7, 8)
    assert all(e > s for s, e in d)
    assert d[-1][1] == 7
    assert sum(e - s for s, e in d) == 7


def test_aligned_domains_snap_to_stripe():
    unit = 64
    d = aligned_domains(1000, 3, unit)
    for s, e in d[:-1]:
        assert s % unit == 0 and e % unit == 0
    assert d[-1][1] == 1000
    assert sum(e - s for s, e in d) == 1000


def test_domain_validation():
    with pytest.raises(ValueError):
        even_domains(100, 0)
    with pytest.raises(ValueError):
        aligned_domains(100, 2, 0)


def test_layout_aware_beats_naive():
    """The report's >= 24% improvement for the tested workloads."""
    cfg = CollectiveConfig(n_ranks=16, n_aggregators=4)
    params = GPFS_LIKE.with_servers(4)
    naive = run_collective_write(cfg, params, scheme="naive-even")
    aware = run_collective_write(cfg, params, scheme="layout-aware")
    assert naive.total_bytes == aware.total_bytes
    gain = (naive.makespan_s - aware.makespan_s) / naive.makespan_s
    assert gain >= 0.1
    assert aware.lock_migrations <= naive.lock_migrations


def test_layout_benefit_grows_with_aggregators():
    """Report: 'benefit increasing as the number of processes increases'."""
    params = GPFS_LIKE.with_servers(4)

    def gain(n_aggs):
        cfg = CollectiveConfig(n_ranks=4 * n_aggs, n_aggregators=n_aggs)
        naive = run_collective_write(cfg, params, scheme="naive-even")
        aware = run_collective_write(cfg, params, scheme="layout-aware")
        return (naive.makespan_s - aware.makespan_s) / naive.makespan_s

    assert gain(8) >= gain(2) - 0.05


# ------------------------------------------------------------- prefetch
def test_order1_learns_repeating_loop():
    rng = np.random.default_rng(0)
    stream = looping_stream(n_blocks=30, n_loops=8, rng=rng, noise=0.0)
    stats = evaluate_prefetcher(OrderOnePrefetcher(), stream)
    assert stats.coverage > 0.7
    assert stats.accuracy > 0.7


def test_gmc_matches_order1_on_local_pattern():
    rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
    s1 = looping_stream(30, 8, rng1, noise=0.05)
    s2 = looping_stream(30, 8, rng2, noise=0.05)
    o1 = evaluate_prefetcher(OrderOnePrefetcher(), s1)
    gmc = evaluate_prefetcher(GMCPrefetcher(max_order=3), s2)
    assert gmc.coverage >= o1.coverage - 0.1


def test_gmc_beats_order1_on_cross_file_pattern():
    """The GMC claim: higher coverage at maintained accuracy, thanks to
    global multi-order context."""
    rng1, rng2 = np.random.default_rng(2), np.random.default_rng(2)
    s1 = multi_file_stream(n_files=4, blocks_per_file=16, n_rounds=40, rng=rng1)
    s2 = multi_file_stream(n_files=4, blocks_per_file=16, n_rounds=40, rng=rng2)
    o1 = evaluate_prefetcher(OrderOnePrefetcher(k=1), s1)
    gmc = evaluate_prefetcher(GMCPrefetcher(max_order=3, k=1), s2)
    assert gmc.coverage > o1.coverage + 0.15
    assert gmc.accuracy > 0.6
    assert gmc.accuracy >= o1.accuracy - 0.1


def test_gmc_invalid_order():
    with pytest.raises(ValueError):
        GMCPrefetcher(max_order=0)


def test_stream_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        looping_stream(10, 2, rng, noise=1.5)


def test_stats_empty_stream():
    stats = evaluate_prefetcher(OrderOnePrefetcher(), [])
    assert stats.coverage == 0.0
    assert stats.accuracy == 0.0
