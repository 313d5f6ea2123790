"""Synthetic failure traces standing in for the LANL / CFDR data releases.

The real data (a decade of interrupts from 22 LANL systems; drive
replacement logs from HPC sites and ISPs) is the gated input this module
substitutes.  The generators are calibrated to the published *findings*:

* application interrupts arrive (approximately Poisson) at a rate linear
  in the number of processor chips, ~0.1 interrupts/chip/year;
* disk lifetimes follow an increasing-hazard Weibull (shape > 1): no
  infant-mortality plateau, replacement rates that grow steadily with
  age, and no difference between "enterprise" and "desktop" populations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class InterruptTrace:
    """Interrupt log for one cluster."""

    system: str
    n_chips: int
    years: float
    interrupt_times: np.ndarray  # years since deployment, sorted

    @property
    def n_interrupts(self) -> int:
        return len(self.interrupt_times)

    @property
    def interrupts_per_year(self) -> float:
        return self.n_interrupts / self.years

    def times_in_seconds(self, horizon_s: float) -> np.ndarray:
        """Interrupt times scaled linearly from ``[0, years)`` onto
        ``[0, horizon_s)`` simulated seconds — the bridge from the
        calendar-scale trace generators to discrete-event fault
        schedules (:class:`repro.faults.FaultSchedule`)."""
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        return self.interrupt_times * (horizon_s / self.years)


def synth_interrupt_trace(
    system: str,
    n_chips: int,
    years: float,
    rng: np.random.Generator,
    rate_per_chip_year: float = 0.1,
) -> InterruptTrace:
    """Poisson interrupt arrivals at ``rate_per_chip_year * n_chips``."""
    if n_chips < 1 or years <= 0:
        raise ValueError("need n_chips >= 1 and years > 0")
    rate = rate_per_chip_year * n_chips
    n = rng.poisson(rate * years)
    times = np.sort(rng.uniform(0.0, years, size=n))
    return InterruptTrace(system, n_chips, years, times)


def synth_lanl_fleet(
    rng: np.random.Generator,
    chip_counts: tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096, 8192),
    years: float = 5.0,
    rate_per_chip_year: float = 0.1,
) -> list[InterruptTrace]:
    """A fleet spanning two orders of magnitude in size, like LANL's."""
    return [
        synth_interrupt_trace(f"sys{i}", n, years, rng, rate_per_chip_year)
        for i, n in enumerate(chip_counts)
    ]


@dataclass
class DrivePopulation:
    """Replacement history of one drive population observed over a window.

    ``failure_ages`` holds the age (years) at which each *observed*
    replacement occurred; ``exposure_years[k]`` is total drive-years spent
    at age-year ``k`` (for rate normalization).  Failed drives are replaced
    with new ones, so exposure concentrates at young ages — exactly the
    shape of real field data.
    """

    name: str
    drive_class: str             # 'enterprise' | 'desktop'
    datasheet_mttf_hours: float
    failure_ages: np.ndarray
    exposure_years: np.ndarray


def synth_drive_population(
    name: str,
    n_drives: int,
    observe_years: int,
    rng: np.random.Generator,
    drive_class: str = "enterprise",
    weibull_shape: float = 1.3,
    weibull_scale_years: float = 12.0,
    datasheet_mttf_hours: float = 1.0e6,
) -> DrivePopulation:
    """Simulate a replaced-on-failure population for ``observe_years``.

    Weibull shape > 1 encodes the published finding that hazard *rises*
    with age (no bathtub).  The scale is set so observed annual replacement
    rates land in the 2-6 %/year band the FAST'07 paper reports — an order
    of magnitude above what a 1M-hour datasheet MTTF implies (~0.88 %/yr).
    """
    if weibull_shape <= 0 or weibull_scale_years <= 0:
        raise ValueError("Weibull parameters must be positive")
    failure_ages: list[float] = []
    exposure = np.zeros(observe_years, dtype=float)
    for _ in range(n_drives):
        t = 0.0  # time within the observation window
        while t < observe_years:
            life = weibull_scale_years * rng.weibull(weibull_shape)
            end = min(t + life, observe_years)
            # accumulate exposure per age-year of this drive
            age_end = end - t
            full_years = int(age_end)
            exposure[:full_years] += 1.0 if full_years <= observe_years else 0.0
            if full_years < observe_years:
                exposure[full_years] += age_end - full_years
            if t + life >= observe_years:
                break
            failure_ages.append(life)
            t += life
    return DrivePopulation(
        name=name,
        drive_class=drive_class,
        datasheet_mttf_hours=datasheet_mttf_hours,
        failure_ages=np.asarray(sorted(failure_ages)),
        exposure_years=exposure,
    )
