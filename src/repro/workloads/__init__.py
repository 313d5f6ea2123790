"""Workload generators shaped like the applications the report measured.

The PDSI characterization effort (§3.2) traced S3D, FLASH, Chombo, POP,
GTC, NWChem and others; what matters to the storage system is each code's
*access pattern* — N-1 strided vs segmented, record sizes, and
alignment.  These generators emit those patterns as plain
``pattern[rank] = [(logical_offset, nbytes), ...]`` lists consumed by the
PLFS sim bridge, plus device-level sweeps (IOZone-like).  The
Metarates-style metadata storm lives with its model, in
:func:`repro.giga.run_storm`.
"""

from repro.workloads.patterns import (
    n1_segmented,
    n1_strided,
    overlap_bytes,
    pattern_bytes,
    with_jitter,
)
from repro.workloads.apps import (
    APP_CATALOG,
    AppProfile,
    app_pattern,
    flash_like,
)
from repro.workloads.checkpoint import (
    FaultedCheckpointResult,
    run_faulted_checkpoint,
)
from repro.workloads.s3d import S3DWeakScaling, predict_checkpoint_series
from repro.workloads.iozone import iozone_bandwidth_sweep, iozone_random_iops

__all__ = [
    "APP_CATALOG",
    "AppProfile",
    "FaultedCheckpointResult",
    "S3DWeakScaling",
    "app_pattern",
    "flash_like",
    "iozone_bandwidth_sweep",
    "iozone_random_iops",
    "n1_segmented",
    "n1_strided",
    "overlap_bytes",
    "pattern_bytes",
    "predict_checkpoint_series",
    "run_faulted_checkpoint",
    "with_jitter",
]
