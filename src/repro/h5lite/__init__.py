"""H5-lite: the Fig 13 HDF5 optimization study on the simulated PFS.

NERSC's HDF5 project (§5.2.1) tuned parallel HDF5 until Chombo and GCRM
wrote at up to 33x their baseline, near the file system's peak.
:mod:`repro.h5lite.perf` is the parallel write path on the simulated PFS
with the optimization stack (collective buffering, stripe alignment,
metadata aggregation) applied cumulatively, reproducing the figure's
stacked-bar shape for Chombo-like and GCRM-like workloads.
"""

from repro.h5lite.perf import H5PerfConfig, OPT_STACK, cumulative_optimizations, run_h5_write

__all__ = [
    "H5PerfConfig",
    "OPT_STACK",
    "cumulative_optimizations",
    "run_h5_write",
]
