"""Fig 7 — GIGA+ scale and performance (UCAR Metarates benchmark).

Report: concurrent creates in one directory scale with server count;
stale client maps are corrected lazily at small bounded cost.
"""

from benchmarks.conftest import print_table
from repro.giga import run_storm


def run_fig7():
    return [
        run_storm(n_servers, 32, 200, lookups_per_client=0)
        for n_servers in (1, 2, 4, 8, 16)
    ]


def test_fig07_giga_metarates(run_once):
    results = run_once(run_fig7)
    base = results[0].creates_per_s
    rows = [
        [r.n_servers, round(r.creates_per_s), f"{r.creates_per_s / base:.1f}x",
         r.partitions, r.splits, r.redirects_create, f"{r.mean_redirects_create:.3f}"]
        for r in results
    ]
    print_table(
        "Fig 7: Metarates create throughput vs GIGA+ servers",
        ["servers", "creates/s", "scaling", "parts", "splits", "redirects", "per create"],
        rows,
        widths=[9, 11, 9, 7, 8, 11, 12],
    )
    rates = [r.creates_per_s for r in results]
    # throughput grows monotonically with servers...
    assert all(b > a for a, b in zip(rates, rates[1:]))
    # ...and 16 servers deliver at least 5x one server (near-linear trend)
    assert rates[-1] > 5.0 * rates[0]
    # all creates landed; directory integrity verified inside run_storm
    assert all(r.creates == 6400 for r in results)
    # stale-map corrections stay a small fraction of operations
    assert all(r.mean_redirects_create < 0.3 for r in results)
