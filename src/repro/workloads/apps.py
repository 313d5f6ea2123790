"""Application-shaped checkpoint workloads (Fig 8's x-axis).

Profiles approximate the published I/O characterizations:

* **FLASH-IO**: HDF5 checkpoints; each rank contributes many *small,
  unaligned* records per variable (tens of KB with odd sizes).  The report
  cites "two orders of magnitude" PLFS speedup.
* **Chombo**: AMR framework; variable-size boxes, unaligned, N-1 strided.
  Report cites "an order of magnitude".
* **LANL production codes** (anonymous): N-1 strided with moderate records;
  report cites 5x-28x.
* **QCD / MILC-like**: small fixed records, heavily strided.
* **S3D**: Fortran N-1 segmented with larger contiguous per-rank regions —
  the pattern deployed FSes handle *least badly*, so PLFS's win is smaller.

Sizes are scaled down (per-rank KB, not GB) so simulations run in seconds;
the *pattern geometry* — interleave, alignment, record size relative to
stripe/lock units — is what drives the measured ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.workloads.patterns import Pattern, n1_segmented, n1_strided, with_jitter


@dataclass(frozen=True)
class AppProfile:
    """Shape of one application's checkpoint I/O."""

    name: str
    kind: str                 # 'strided' | 'segmented'
    record_bytes: int
    steps: int                # records per rank per checkpoint
    size_jitter: float = 0.0  # AMR-style variable record sizes
    note: str = ""


APP_CATALOG: dict[str, AppProfile] = {
    "flash": AppProfile(
        name="FLASH-IO",
        kind="strided",
        record_bytes=7_355,       # small odd-sized HDF5 variable chunks
        steps=24,
        size_jitter=0.15,
        note="report: ~two orders of magnitude with PLFS",
    ),
    "chombo": AppProfile(
        name="Chombo",
        kind="strided",
        record_bytes=41_771,      # unaligned AMR boxes, tens of KB
        steps=12,
        size_jitter=0.35,
        note="report: ~an order of magnitude with PLFS",
    ),
    "lanl-app1": AppProfile(
        name="LANL App 1",
        kind="strided",
        record_bytes=131_115,     # ~128 KB + header misalignment
        steps=8,
        note="report: production speedups 5x-28x",
    ),
    "qcd": AppProfile(
        name="QCD (MILC-like)",
        kind="strided",
        record_bytes=12_288,
        steps=32,
        note="small fixed records, heavy interleave",
    ),
    "s3d": AppProfile(
        name="S3D (Fortran I/O)",
        kind="segmented",
        record_bytes=524_288,
        steps=4,
        note="contiguous per-rank regions; smallest PLFS win",
    ),
    "pop": AppProfile(
        name="POP (ocean model)",
        kind="strided",
        record_bytes=27_648,      # 2D slab rows, unaligned
        steps=16,
        size_jitter=0.05,
        note="PERI/PDSI characterization target (netCDF-style slabs)",
    ),
    "gtc": AppProfile(
        name="GTC (fusion PIC)",
        kind="segmented",
        record_bytes=262_144,     # particle arrays, per-rank regions
        steps=6,
        note="PERI Tiger Team code; larger contiguous records",
    ),
}


def app_pattern(
    profile: AppProfile, n_ranks: int, rng: Optional[np.random.Generator] = None
) -> Pattern:
    """Materialize a profile for ``n_ranks`` ranks."""
    if profile.kind == "strided":
        base = n1_strided(n_ranks, profile.record_bytes, profile.steps)
    elif profile.kind == "segmented":
        base = n1_segmented(n_ranks, profile.record_bytes, profile.steps)
    else:
        raise ValueError(f"unknown pattern kind {profile.kind!r}")
    if profile.size_jitter > 0.0:
        base = with_jitter(base, rng or np.random.default_rng(0), profile.size_jitter)
    return base
