"""Synthetic per-server metric streams with injected faults.

Servers in a striped parallel file system see near-identical load, so
their metrics co-move: a shared workload signal plus small per-server
noise.  Faults perturb specific metrics on one server:

* ``cpu-hog``   — a rogue process: CPU way up, throughput down a little;
* ``slow-disk`` — a blocked/failing disk: disk latency way up,
  throughput down;
* ``lossy-net`` — packet loss: network latency up, throughput down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRICS = ("cpu", "disk_tput", "disk_lat", "net_tput", "net_lat")
FAULT_KINDS = ("cpu-hog", "slow-disk", "lossy-net")


@dataclass
class MetricTraces:
    """metrics[metric] has shape (n_servers, n_windows)."""

    metrics: dict[str, np.ndarray]
    faulty_server: int | None
    fault_kind: str | None
    fault_start: int | None

    @property
    def n_servers(self) -> int:
        return next(iter(self.metrics.values())).shape[0]


def synth_cluster_metrics(
    n_servers: int,
    n_windows: int,
    rng: np.random.Generator,
    fault: str | None = None,
    faulty_server: int | None = None,
    fault_start: int | None = None,
    noise: float = 0.05,
    severity: float = 2.0,
) -> MetricTraces:
    """Generate correlated metric streams, optionally with one fault.

    ``severity`` scales how hard the fault distorts its metrics (2.0 =
    a blatant hog; ~0.3 = subtle).
    """
    if n_servers < 3:
        raise ValueError("peer comparison needs at least 3 servers")
    if fault is not None and fault not in FAULT_KINDS:
        raise ValueError(f"unknown fault {fault!r}")
    # shared workload signal: smoothed random walk in [0.3, 1.0]
    walk = np.cumsum(rng.normal(0, 0.08, size=n_windows))
    shared = 0.65 + 0.35 * np.tanh(walk / 2.0)
    base = {
        "cpu": 40.0,        # percent
        "disk_tput": 60.0,  # MB/s
        "disk_lat": 8.0,    # ms
        "net_tput": 90.0,   # MB/s
        "net_lat": 0.4,     # ms
    }
    metrics = {}
    for name, scale in base.items():
        per_server = scale * shared[None, :] * (
            1.0 + rng.normal(0, noise, size=(n_servers, n_windows))
        )
        metrics[name] = np.maximum(per_server, 0.0)
    if fault is not None:
        s = int(rng.integers(0, n_servers)) if faulty_server is None else faulty_server
        t0 = n_windows // 3 if fault_start is None else fault_start
        sl = (s, slice(t0, None))
        if fault == "cpu-hog":
            metrics["cpu"][sl] *= 1.0 + 1.2 * severity
            metrics["disk_tput"][sl] *= max(0.1, 1.0 - 0.2 * severity)
        elif fault == "slow-disk":
            metrics["disk_lat"][sl] *= 1.0 + 2.0 * severity
            metrics["disk_tput"][sl] *= max(0.05, 1.0 - 0.35 * severity)
        elif fault == "lossy-net":
            metrics["net_lat"][sl] *= 1.0 + 2.5 * severity
            metrics["net_tput"][sl] *= max(0.05, 1.0 - 0.3 * severity)
        return MetricTraces(metrics, s, fault, t0)
    return MetricTraces(metrics, None, None, None)
