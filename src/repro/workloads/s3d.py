"""S3D weak-scaling checkpoint study (report Figure 2).

Figure 2 shows (a) measured time spent in checkpoint I/O for the S3D c2h4
problem under weak scaling — fixed bytes per rank, so total checkpoint
volume grows linearly with rank count while the file system's aggregate
bandwidth is fixed — and (b) that measurement extrapolated to the
checkpoint share of a 12-hour production run.

This module drives the PFS simulator for the measured points and provides
the same linear-projection model ORNL used for the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pfs.params import PFSParams
from repro.plfs.simbridge import CheckpointResult, run_direct_n1
from repro.workloads.patterns import Pattern, n1_segmented


@dataclass(frozen=True)
class S3DWeakScaling:
    """Configuration of the weak-scaling sweep.

    ``per_rank_bytes`` is each rank's contribution to one checkpoint (weak
    scaling holds it constant); S3D's Fortran I/O writes a contiguous
    per-rank region of the shared file, i.e. N-1 segmented, in
    ``records_per_rank`` pieces.
    """

    per_rank_bytes: int = 2 << 20
    records_per_rank: int = 4
    rank_counts: tuple[int, ...] = (4, 8, 16, 32, 64)

    def pattern(self, n_ranks: int) -> Pattern:
        rec = self.per_rank_bytes // self.records_per_rank
        return n1_segmented(n_ranks, rec, self.records_per_rank)


@dataclass
class WeakScalingPoint:
    n_ranks: int
    checkpoint_time_s: float
    bandwidth_MBps: float


def measure_weak_scaling(
    config: S3DWeakScaling, params: PFSParams
) -> list[WeakScalingPoint]:
    """Simulate one direct N-1 checkpoint at each rank count; returns the series."""
    out = []
    for n in config.rank_counts:
        res: CheckpointResult = run_direct_n1(params, config.pattern(n))
        out.append(
            WeakScalingPoint(
                n_ranks=n,
                checkpoint_time_s=res.makespan_s,
                bandwidth_MBps=res.bandwidth_MBps,
            )
        )
    return out


def predict_checkpoint_series(
    measured: list[WeakScalingPoint],
    run_hours: float = 12.0,
    checkpoint_interval_s: float = 1800.0,
) -> list[dict]:
    """Extrapolate measured single-checkpoint times to a full run (Fig 2b).

    Fits checkpoint time as linear in rank count (weak scaling through a
    fixed-bandwidth file system is asymptotically linear) and reports, for
    each measured rank count, the predicted total checkpoint time and its
    share of a ``run_hours`` production run checkpointing every
    ``checkpoint_interval_s``.
    """
    if len(measured) < 2:
        raise ValueError("need at least two measured points to fit")
    x = np.array([m.n_ranks for m in measured], dtype=float)
    y = np.array([m.checkpoint_time_s for m in measured])
    slope, intercept = np.polyfit(x, y, 1)
    n_ckpts = int(run_hours * 3600.0 / checkpoint_interval_s)
    out = []
    for m in measured:
        t_pred = max(0.0, slope * m.n_ranks + intercept)
        total = n_ckpts * t_pred
        out.append(
            {
                "n_ranks": m.n_ranks,
                "per_checkpoint_s": t_pred,
                "checkpoints": n_ckpts,
                "total_checkpoint_s": total,
                "fraction_of_run": total / (run_hours * 3600.0),
            }
        )
    return out
