"""Drive-failure analysis: the FAST'07 "what does an MTTF of 1,000,000
hours mean to you?" computations, run against trace data.

Given a replacement history the analysis produces annual replacement rates
(ARR) by drive age and the statistics behind the report's three headline
claims: the absence of a bathtub, rates growing with age, and the gulf
between observed ARR and datasheet AFR.
"""

from __future__ import annotations

import numpy as np

from repro.failure.traces import DrivePopulation

HOURS_PER_YEAR = 8766.0


def datasheet_afr(mttf_hours: float) -> float:
    """Annualized failure rate a datasheet MTTF implies (exponential model)."""
    if mttf_hours <= 0:
        raise ValueError("MTTF must be positive")
    return 1.0 - float(np.exp(-HOURS_PER_YEAR / mttf_hours))


def annual_replacement_rates(pop: DrivePopulation) -> np.ndarray:
    """ARR per age-year bucket: replacements at age k / drive-years at k."""
    n_buckets = len(pop.exposure_years)
    counts = np.zeros(n_buckets)
    ages = pop.failure_ages
    idx = np.floor(ages).astype(int)
    idx = idx[idx < n_buckets]
    np.add.at(counts, idx, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        arr = np.where(pop.exposure_years > 0, counts / pop.exposure_years, np.nan)
    return arr


def bathtub_deviation(arr_by_age: np.ndarray) -> dict:
    """Quantify how un-bathtub-like an ARR-by-age curve is.

    The bathtub model predicts year-0 ("infant mortality") exceeding the
    mid-life plateau and a flat middle.  Field data instead shows rates
    rising steadily.  Returns the two diagnostics the report's narrative
    rests on.
    """
    arr = np.asarray(arr_by_age, dtype=float)
    arr = arr[~np.isnan(arr)]
    if len(arr) < 3:
        raise ValueError("need at least 3 age buckets")
    infant_ratio = arr[0] / arr[1:3].mean() if arr[1:3].mean() > 0 else np.inf
    # Theil-Sen-ish monotone trend: fraction of increasing adjacent pairs
    diffs = np.diff(arr)
    growth_fraction = float((diffs > 0).mean())
    slope = float(np.polyfit(np.arange(len(arr)), arr, 1)[0])
    return {
        "infant_ratio": float(infant_ratio),   # bathtub predicts >> 1
        "growth_fraction": growth_fraction,    # steady growth predicts ~1
        "trend_slope_per_year": slope,         # positive = rates grow with age
    }


def observed_vs_datasheet(pop: DrivePopulation) -> dict:
    """Overall observed ARR against the datasheet-implied AFR."""
    total_failures = len(pop.failure_ages)
    total_exposure = float(pop.exposure_years.sum())
    observed = total_failures / total_exposure if total_exposure > 0 else np.nan
    implied = datasheet_afr(pop.datasheet_mttf_hours)
    return {
        "observed_arr": float(observed),
        "datasheet_afr": implied,
        "ratio": float(observed / implied),
    }


def compare_populations(a: DrivePopulation, b: DrivePopulation) -> dict:
    """Enterprise-vs-desktop comparison: overall ARR ratio near 1 refutes
    the 'enterprise drives fail less' belief."""
    ra = observed_vs_datasheet(a)["observed_arr"]
    rb = observed_vs_datasheet(b)["observed_arr"]
    return {
        a.name: ra,
        b.name: rb,
        "ratio": ra / rb if rb > 0 else np.inf,
    }
