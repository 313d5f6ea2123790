"""fsstats: static file-system surveys and the Fig 3 size CDF.

The CMU/LANL/Panasas ``fsstats`` tool scans a file system at rest and
reports distributions of file sizes, directory sizes, etc.  PDSI published
nineteen survey results; Fig 3 overlays the file-size CDFs of eleven
non-archival file systems, showing medians in the KB-MB range with heavy
multi-GB tails.

``FS_PROFILES`` holds lognormal-mixture models of eleven plausible
systems (scratch, project, home, archive-feeder...); ``synth_file_sizes``
samples them, and ``size_cdf`` / ``survey_summary`` reproduce the
published statistics from any size sample — synthetic or scanned from a
real directory tree via :func:`scan_directory`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class FsProfile:
    """Lognormal mixture over file sizes (bytes)."""

    name: str
    medians: tuple[float, ...]       # component medians
    sigmas: tuple[float, ...]        # component log-sigmas
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.medians) == len(self.sigmas) == len(self.weights)):
            raise ValueError("mixture component lists must align")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


def _profile(name, comps):
    meds, sigs, ws = zip(*comps)
    return FsProfile(name, meds, sigs, ws)


#: Eleven non-archival file-system personalities (Fig 3's curves).
FS_PROFILES: dict[str, FsProfile] = {
    "hpc-scratch1": _profile("hpc-scratch1", [(8e6, 2.2, 0.7), (2e9, 1.0, 0.3)]),
    "hpc-scratch2": _profile("hpc-scratch2", [(2e6, 2.0, 0.8), (8e8, 1.2, 0.2)]),
    "hpc-project": _profile("hpc-project", [(1e5, 2.4, 0.6), (6e7, 1.8, 0.4)]),
    "home1": _profile("home1", [(1.2e4, 2.2, 0.9), (4e6, 1.6, 0.1)]),
    "home2": _profile("home2", [(6e3, 2.0, 0.85), (1e7, 1.8, 0.15)]),
    "workstation-backup": _profile("workstation-backup", [(3e4, 2.6, 1.0)]),
    "viz-output": _profile("viz-output", [(5e7, 1.4, 0.8), (1e6, 1.5, 0.2)]),
    "shared-apps": _profile("shared-apps", [(9e4, 2.1, 1.0)]),
    "climate-runs": _profile("climate-runs", [(1.5e8, 1.2, 0.7), (4e5, 2.0, 0.3)]),
    "genomics": _profile("genomics", [(2e7, 1.8, 0.6), (5e4, 2.4, 0.4)]),
    "mixed-lab": _profile("mixed-lab", [(4e4, 2.5, 0.75), (3e8, 1.3, 0.25)]),
}


def synth_file_sizes(profile: FsProfile, n_files: int, rng: np.random.Generator) -> np.ndarray:
    """Sample ``n_files`` file sizes from the profile's mixture."""
    if n_files < 1:
        raise ValueError("need at least one file")
    comps = rng.choice(len(profile.weights), size=n_files, p=profile.weights)
    meds = np.asarray(profile.medians)[comps]
    sigs = np.asarray(profile.sigmas)[comps]
    return np.maximum(1, rng.lognormal(np.log(meds), sigs)).astype(np.int64)


def size_cdf(sizes: np.ndarray, points: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(x, F(x)) of the file-size CDF by *count* at log-spaced points."""
    sizes = np.sort(np.asarray(sizes))
    if len(sizes) == 0:
        raise ValueError("no sizes")
    if points is None:
        points = np.logspace(0, np.log10(max(sizes.max(), 2)), 64)
    frac = np.searchsorted(sizes, points, side="right") / len(sizes)
    return points, frac


def survey_summary(sizes: np.ndarray) -> dict:
    """The headline fsstats numbers for one file system."""
    sizes = np.asarray(sizes)
    return {
        "files": int(len(sizes)),
        "total_bytes": int(sizes.sum()),
        "median_bytes": float(np.median(sizes)),
        "mean_bytes": float(sizes.mean()),
        "p90_bytes": float(np.percentile(sizes, 90)),
        "p99_bytes": float(np.percentile(sizes, 99)),
        "frac_under_4k": float((sizes <= 4096).mean()),
        "frac_capacity_in_top_1pct": float(
            np.sort(sizes)[-max(1, len(sizes) // 100):].sum() / max(sizes.sum(), 1)
        ),
    }


def scan_directory(root: os.PathLike | str) -> np.ndarray:
    """fsstats-style scan of a real directory tree (sizes in bytes)."""
    sizes = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            try:
                sizes.append(os.path.getsize(Path(dirpath) / name))
            except OSError:
                continue
    return np.asarray(sizes, dtype=np.int64)
