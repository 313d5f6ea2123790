"""Keyed always-on counts for simulated components.

:class:`Counter` is the one counting idiom of the simulated servers and
services (``_StorageServer``, ``SimPFS``, ``GigaService``,
``FaultableServer``); the model reads the local store, never its
registry mirror.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import HeldSeries


class Counter:
    """Named monotone counters (events, bytes, retries ...).

    When ``registry`` (a :class:`repro.obs.MetricsRegistry`) is given,
    every ``add`` is mirrored to ``registry.counter(prefix + key,
    **labels)`` — so one component-local store doubles as the obs
    source of truth instead of double-booking into both.  The series is
    looked up on a key's first ``add`` and held, not once per ``add``.
    """

    def __init__(self, registry=None, prefix: str = "", labels: Optional[dict] = None) -> None:
        self._counts: dict[str, float] = {}
        self._series = None
        if registry is not None:
            labels = dict(labels) if labels else {}
            self._series = HeldSeries(
                lambda key: registry.counter(prefix + key, **labels)
            )

    def add(self, key: str, amount: float = 1.0) -> None:
        self._counts[key] = self._counts.get(key, 0.0) + amount
        if self._series is not None:
            self._series[key].inc(amount)

    def __getitem__(self, key: str) -> float:
        return self._counts.get(key, 0.0)

    def as_dict(self) -> dict[str, float]:
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counts.items()))
        return f"Counter({inner})"
