"""Lightweight online statistics for simulation instrumentation.

.. deprecated::
    :class:`Counter` and :class:`Gauge` here are the legacy per-component
    stores.  New instrumentation should use the cross-cutting
    :class:`repro.obs.MetricsRegistry` (labelled counters/gauges/
    histograms, deterministic job reports).  Both classes accept a
    ``registry``/``prefix`` pair so existing call sites mirror their
    updates into an active registry without any caller changes — direct
    dict-style access (``counter["key"]``, ``as_dict()``) keeps working
    as a thin back-compat shim.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.obs.metrics import HeldSeries


def _held(registry, kind: str, prefix: str, labels: Optional[dict]):
    """The shim's registry mirror: one series per key, resolved on first use."""
    if registry is None:
        return None
    resolve = getattr(registry, kind)
    labels = dict(labels) if labels else {}
    return HeldSeries(lambda key: resolve(prefix + key, **labels))


class Counter:
    """Named monotone counters (events, bytes, retries ...).

    When ``registry`` (a :class:`repro.obs.MetricsRegistry`) is given,
    every ``add`` is mirrored to ``registry.counter(prefix + key,
    **labels)`` — so one component-local store can double as the obs
    source of truth instead of double-booking into both.  The series is
    looked up on a key's first ``add`` and held, not once per ``add``.
    """

    def __init__(self, registry=None, prefix: str = "", labels: Optional[dict] = None) -> None:
        self._counts: dict[str, float] = {}
        self._series = _held(registry, "counter", prefix, labels)

    def add(self, key: str, amount: float = 1.0) -> None:
        self._counts[key] = self._counts.get(key, 0.0) + amount
        if self._series is not None:
            self._series[key].inc(amount)

    #: alias matching :class:`repro.obs.metrics.Counter`
    inc = add

    def __getitem__(self, key: str) -> float:
        return self._counts.get(key, 0.0)

    def as_dict(self) -> dict[str, float]:
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counts.items()))
        return f"Counter({inner})"


class Gauge:
    """Named instantaneous values with set/inc/dec (non-monotone).

    The keyed sibling of :class:`Counter` for queue depths, open-handle
    counts, watermarks...  Mirrors into ``registry.gauge(prefix + key,
    **labels)`` when bound to a :class:`repro.obs.MetricsRegistry`.
    """

    def __init__(self, registry=None, prefix: str = "", labels: Optional[dict] = None) -> None:
        self._values: dict[str, float] = {}
        self._series = _held(registry, "gauge", prefix, labels)

    def set(self, key: str, value: float) -> None:
        self._values[key] = float(value)
        if self._series is not None:
            self._series[key].set(value)

    def inc(self, key: str, amount: float = 1.0) -> None:
        self.set(key, self._values.get(key, 0.0) + amount)

    def dec(self, key: str, amount: float = 1.0) -> None:
        self.set(key, self._values.get(key, 0.0) - amount)

    def __getitem__(self, key: str) -> float:
        return self._values.get(key, 0.0)

    def as_dict(self) -> dict[str, float]:
        return dict(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._values.items()))
        return f"Gauge({inner})"


class WelfordStat:
    """Streaming mean/variance via Welford's algorithm (numerically stable)."""

    __slots__ = ("n", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


class TimeWeightedValue:
    """Time-weighted average of a piecewise-constant signal (queue depth...)."""

    __slots__ = ("_value", "_last_time", "_area", "_start")

    def __init__(self, initial: float = 0.0, start_time: float = 0.0) -> None:
        self._value = initial
        self._last_time = start_time
        self._start = start_time
        self._area = 0.0

    def update(self, now: float, value: float) -> None:
        if now < self._last_time:
            raise ValueError("time went backwards")
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value

    @property
    def current(self) -> float:
        return self._value

    def average(self, now: Optional[float] = None) -> float:
        now = self._last_time if now is None else now
        span = now - self._start
        if span <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_time)
        return area / span
