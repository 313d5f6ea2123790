"""X2 — layout-aware collective I/O (§5.4.2).

Report: exposing the physical layout to the MPI-IO middleware gave 'at
least 24% for the tested benchmark workloads, with the benefit increasing
as the number of processes increases'.
"""

from benchmarks.conftest import print_table
from repro.collective import CollectiveConfig, run_collective_write
from repro.pfs import GPFS_LIKE


def run_x2():
    params = GPFS_LIKE.with_servers(4)
    out = []
    for n_aggs in (2, 4, 8, 16):
        cfg = CollectiveConfig(n_ranks=4 * n_aggs, n_aggregators=n_aggs)
        naive = run_collective_write(cfg, params, scheme="naive-even")
        aware = run_collective_write(cfg, params, scheme="layout-aware")
        gain = (naive.makespan_s - aware.makespan_s) / naive.makespan_s
        out.append((n_aggs, naive, aware, gain))
    return out


def test_x02_layout_collective(run_once):
    results = run_once(run_x2)
    rows = [
        [f"{4 * n} ranks/{n} aggs", naive.bandwidth_MBps, aware.bandwidth_MBps,
         f"{gain:.0%}", naive.lock_migrations, aware.lock_migrations]
        for n, naive, aware, gain in results
    ]
    print_table(
        "Layout-aware collective write vs even file domains",
        ["scale", "naive MB/s", "aware MB/s", "gain", "naive locks", "aware locks"],
        rows,
        widths=[18, 12, 12, 7, 12, 12],
    )
    gains = [g for _, _, _, g in results]
    # the headline: >= 24% at the larger scales
    assert max(gains) >= 0.24
    assert all(g > 0.05 for g in gains)
    # benefit does not shrink as processes grow
    assert gains[-1] >= gains[0] - 0.05
    # mechanism: aligned domains eliminate inter-aggregator lock traffic
    for _, naive, aware, _ in results:
        assert aware.lock_migrations <= naive.lock_migrations
