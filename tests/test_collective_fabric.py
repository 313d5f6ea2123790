"""Fabric-aware collective I/O: aggregator selection + the rewritten engine.

Covers the selection layer (``repro.collective.aggsel``) as pure unit
math — server-column domains, shuffle matrices, the fan-in cap — and the
``run_collective_write`` integration: bit-identity with the pre-fabric
engine under the ideal fabric, and the zero-drop shuffle under a
shallow-buffer fabric.
"""

import pytest

from repro.collective import (
    CollectiveConfig,
    phase1_fanin_cap,
    run_collective_write,
    select_aggregators,
    server_column_domains,
    shuffle_matrix,
)
from repro.net.params import FabricParams
from repro.obs import use as obs_use
from repro.pfs import GPFS_LIKE, PFSParams
from repro.workloads import n1_strided, overlap_bytes


# -- server-column domains ---------------------------------------------

def test_server_columns_partition_the_file():
    domains, groups = server_column_domains(1000, 4, 100, 2)
    assert groups == [(0, 1), (2, 3)]
    assert domains[0] == ((0, 200), (400, 600), (800, 1000))
    assert domains[1] == ((200, 400), (600, 800))
    covered = sorted((lo, hi) for exts in domains for lo, hi in exts)
    assert covered[0][0] == 0 and covered[-1][1] == 1000
    for (_, a), (b, _) in zip(covered, covered[1:]):
        assert a == b  # contiguous, disjoint


def test_server_columns_respect_shift():
    # shift rotates chunk->server: chunk c lives on (c + shift) % n
    domains, _ = server_column_domains(800, 4, 100, 2, shift=1)
    # chunks 0,3,4,7 -> servers 1,0,1,0 -> group 0; chunks 1,2,5,6 -> group 1
    assert domains[0] == ((0, 100), (300, 500), (700, 800))
    assert domains[1] == ((100, 300), (500, 700))


def test_server_columns_are_stripe_aligned():
    unit = 64 * 1024
    total = 37 * 1024 * 50  # deliberately unaligned total
    domains, _ = server_column_domains(total, 8, unit, 4)
    for exts in domains:
        for lo, hi in exts:
            assert lo % unit == 0
            assert hi % unit == 0 or hi == total


def test_server_columns_uneven_groups_and_validation():
    _, groups = server_column_domains(1000, 5, 100, 2)
    assert groups == [(0, 1, 2), (3, 4)]  # sizes differ by at most one
    with pytest.raises(ValueError):
        server_column_domains(1000, 0, 100, 2)
    with pytest.raises(ValueError):
        server_column_domains(1000, 4, 100, 0)


# -- the shuffle matrix -------------------------------------------------

def test_shuffle_matrix_matches_overlaps():
    pattern = n1_strided(4, 1000, 2)
    domains = [((0, 3000),), ((3000, 8000),)]
    matrix = shuffle_matrix(pattern, domains)
    for g, extents in enumerate(domains):
        assert matrix[g] == [
            (r, overlap_bytes(w, extents))
            for r, w in enumerate(pattern)
            if overlap_bytes(w, extents) > 0
        ]
    # every byte lands in exactly one aggregator's sends
    assert sum(nb for sends in matrix for _, nb in sends) == 4 * 1000 * 2


# -- the fan-in cap -----------------------------------------------------

def test_phase1_fanin_cap_math():
    params = PFSParams(fabric=FabricParams(buffer_pkts=32, init_cwnd=2))
    assert phase1_fanin_cap(params) == 16
    assert phase1_fanin_cap(params, cost=1.0) == 8
    # ideal fabric: unbounded
    assert phase1_fanin_cap(PFSParams()) == 1 << 30


class _FakeFeedback:
    def __init__(self, costs):
        self._costs = costs

    def costs(self):
        return self._costs


def test_select_aggregators_applies_feedback_cost():
    params = PFSParams(fabric=FabricParams(buffer_pkts=32, init_cwnd=2))
    free = select_aggregators(1 << 20, 16, params)
    hot = select_aggregators(1 << 20, 16, params, feedback=_FakeFeedback([0.0, 1.0]))
    assert free.phase1_fanin_cap == 16
    assert hot.phase1_fanin_cap == 8  # worst port cost discounts headroom


# -- aggregator-count selection ----------------------------------------

def test_select_count_starts_at_server_parallelism():
    params = PFSParams(n_servers=8, fabric=FabricParams(buffer_pkts=64))
    cfg = CollectiveConfig(n_ranks=32, n_aggregators=8)
    plan = select_aggregators(
        cfg.total_bytes, cfg.n_ranks, params, pattern=cfg.pattern(), requested=8
    )
    assert plan.requested_aggregators == 8
    assert 1 <= plan.n_aggregators <= 8
    assert plan.total_bytes == cfg.total_bytes
    assert len(plan.server_groups) == plan.n_aggregators


def test_select_count_shrinks_for_thin_slices():
    # tiny records: at 8 aggregators each rank sends 4 x 512 B = 2 KB per
    # aggregator, under the 3 KB one-initial-window floor — halve to 4,
    # where the slice doubles to 4 KB and clears it
    fab = FabricParams(buffer_pkts=64)
    params = PFSParams(n_servers=8, fabric=fab)
    thin = CollectiveConfig(n_ranks=32, n_aggregators=8, record_bytes=512, steps=32)
    plan = select_aggregators(
        thin.total_bytes, thin.n_ranks, params, pattern=thin.pattern()
    )
    assert plan.n_aggregators == 4
    # the same config on the ideal fabric keeps full parallelism
    ideal = select_aggregators(
        thin.total_bytes, thin.n_ranks, PFSParams(n_servers=8), pattern=thin.pattern()
    )
    assert ideal.n_aggregators == 8


def test_select_aggregators_validation():
    with pytest.raises(ValueError):
        select_aggregators(0, 4, PFSParams())
    with pytest.raises(ValueError):
        select_aggregators(1024, 0, PFSParams())


# -- the rewritten engine ----------------------------------------------

def test_ideal_fabric_bit_identical_golden():
    """The rewritten engine reproduces the pre-fabric float sequence."""
    cfg = CollectiveConfig(n_ranks=16, n_aggregators=4)
    r = run_collective_write(cfg, GPFS_LIKE.with_servers(4), scheme="naive-even")
    assert r.makespan_s == 0.08769074548458544  # exact — no tolerance
    assert r.scheme == "naive-even"
    assert r.n_aggregators == 4


def test_scheme_argument_and_validation():
    cfg = CollectiveConfig(n_ranks=8, n_aggregators=2)
    params = GPFS_LIKE.with_servers(4)
    assert run_collective_write(cfg, params).scheme == "naive-even"  # the default
    assert run_collective_write(cfg, params, scheme="layout-aware").scheme == "layout-aware"
    with pytest.raises(ValueError):
        run_collective_write(cfg, params, scheme="psychic")


def test_fabric_aware_shuffle_never_overflows():
    fab = FabricParams(buffer_pkts=32)
    params = PFSParams(fabric=fab)
    cfg = CollectiveConfig(n_ranks=16, n_aggregators=8)
    blind = run_collective_write(cfg, params, scheme="layout-aware")
    aware = run_collective_write(cfg, params, scheme="fabric-aware")
    # mechanism: capped + paced shuffle loses nothing; the blind one incasts
    assert aware.shuffle_drops_pkts == 0
    assert aware.shuffle_rtos == 0
    assert blind.shuffle_drops_pkts > 0
    # and it shows up as time
    assert aware.makespan_s < blind.makespan_s
    assert aware.plan is not None
    assert aware.fanin_cap == 16
    assert aware.lock_migrations == 0


def test_fabric_aware_on_ideal_fabric_is_plain_parallelism():
    cfg = CollectiveConfig(n_ranks=16, n_aggregators=4)
    r = run_collective_write(cfg, PFSParams(), scheme="fabric-aware")
    assert r.shuffle_drops_pkts == 0 and r.shuffle_rtos == 0
    assert r.n_aggregators == 8  # one per server: no fabric pressure to shrink
    assert r.makespan_s > 0


def test_collective_metrics_registered():
    with obs_use() as o:
        cfg = CollectiveConfig(n_ranks=8, n_aggregators=4)
        run_collective_write(
            cfg, PFSParams(fabric=FabricParams(buffer_pkts=64)), scheme="fabric-aware"
        )
        snap = o.metrics.snapshot()
        assert snap["gauges"]["collective.aggregators"] > 0
        assert snap["gauges"]["collective.fanin_cap"] > 0
        assert snap["counters"]["collective.shuffle_bytes"] == cfg.total_bytes
        assert snap["counters"]["collective.written_bytes"] == cfg.total_bytes
        spans = [s.name for s in o.tracer.spans]
        for name in ("collective.write", "collective.aggregator",
                     "collective.phase1", "collective.phase2"):
            assert name in spans, name
