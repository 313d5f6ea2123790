"""Fig 5 — effective application utilization under checkpoint-restart.

Report: with balanced storage, utilization of the largest machines 'may
cross under 50% before 2014'; faster storage growth (disks +130%/yr) is
'highly unlikely' but would fix it; process pairs cap utilization at 50%
but remove the checkpoint pressure.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.failure import (
    CheckpointModel,
    MachineTrend,
    project_utilization,
    utilization_crossing_year,
)

POLICIES = ("balanced", "disk-only", "aggressive")


def run_fig5():
    trend = MachineTrend(chip_doubling_months=24.0)
    years = np.arange(2008, 2019)
    series = {
        scal: project_utilization(trend, years, base_delta_s=900.0, storage_scaling=scal)
        for scal in POLICIES
    }
    series["process pairs"] = np.array([
        CheckpointModel(mtti_s=trend.mtti_s(float(y)), delta_s=900.0).process_pairs_utilization()
        for y in years
    ])
    crossing = utilization_crossing_year(trend, 0.5, base_delta_s=900.0)
    return years, series, crossing


def test_fig05_utilization(run_once):
    years, series, crossing = run_once(run_fig5)
    columns = (*POLICIES, "process pairs")
    rows = [[int(y)] + [f"{series[s][i]:.1%}" for s in columns] for i, y in enumerate(years)]
    print_table(
        "Fig 5: best-achievable utilization by storage growth policy",
        ["year", *columns],
        rows,
        widths=[8, 12, 12, 12, 14],
    )
    print(f"\n  balanced-storage 50% crossing: {crossing}")
    bal = series["balanced"]
    # monotone decline; starts healthy
    assert bal[0] > 0.6
    assert np.all(np.diff(bal) <= 1e-9)
    # the report's headline: crossing below 50% in the early 2010s
    assert crossing is not None and 2010.0 <= crossing <= 2016.0
    # disk-only storage growth is strictly worse, aggressive strictly better
    assert np.all(series["disk-only"] <= bal + 1e-12)
    assert np.all(series["aggressive"] >= bal - 1e-12)
    # process pairs stay viable where checkpointing collapses: capped
    # under 50%, they beat balanced storage from the crossing year on
    assert bal[-1] < 0.45
    pairs = series["process pairs"]
    assert np.all(pairs < 0.5)
    late = years >= crossing
    assert late.any() and np.all(pairs[late] > bal[late])
